"""k-nearest-neighbour radii for point samples.

For each sample point the distance to its k-th nearest neighbour among the
other points is computed with an exact spatial index; ``unit_ball_volume``
turns a radius into the volume of the corresponding Euclidean ball.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gammaln

from .errors import EstimationError

# points per k-d tree query; slices of the leaf order keep the query's
# distance and index arrays small
_QUERY_ROWS = 1024


def as_points(points) -> np.ndarray:
    """Validate and return an (n, d) float array of sample points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    return pts


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball, pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def knn_stats(points, ks) -> np.ndarray:
    """The C-contiguous (len(ks), n) array whose row i holds, for every point,
    the radius of its ks[i]-th nearest other point, from one k-d tree query.

    The radius is the k-th order statistic of the distances to the other
    points, so exact ties (including duplicated points) are handled by
    multiset rank and the result does not depend on point ordering.  The
    ball volumes are ``unit_ball_volume(d) * radii**d``.  The tree is freed
    on return, so the caller may reuse the array in place.
    """
    pts = as_points(points)
    n = len(pts)
    if n < 2:
        raise EstimationError(f"need at least 2 points for a neighbour query, got {n}")
    for k in ks:
        if not 1 <= k <= n - 1:
            raise EstimationError(f"k must satisfy 1 <= k <= n - 1, got k={k}, n={n}")
    tree = cKDTree(pts)
    radii = np.empty((len(ks), n))
    # query in the tree's leaf order, so that consecutive queries walk the
    # same nodes; each query is independent, so every radius keeps its bits.
    # The (k+1)-th nearest includes self: dropping the closest zero leaves
    # the k-th order statistic among the other points, ties included
    for start in range(0, n, _QUERY_ROWS):
        rows = tree.indices[start : start + _QUERY_ROWS]
        radii[:, rows] = tree.query(pts[rows], k=[k + 1 for k in ks])[0].T
    return radii


class KCondition(NamedTuple):
    """Verdict of the consistency condition on k relative to n."""

    ok: bool
    statistic: float
    threshold: float
    message: str | None


def validate_k(n: int, k: int) -> KCondition:
    """Soft check that k is small enough for consistent estimation.

    Warns when k^(3/2) Gamma(k) / Gamma(k + 1/2) exceeds half of sqrt(n);
    never an error.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n - 1, got k={k}, n={n}")
    statistic = k**1.5 * math.exp(gammaln(k) - gammaln(k + 0.5))
    threshold = 0.5 * math.sqrt(n)
    if statistic > threshold:
        return KCondition(
            ok=False,
            statistic=statistic,
            threshold=threshold,
            message=(
                f"k={k} is large for n={n}: consistency statistic "
                f"{statistic:.3g} exceeds 0.5*sqrt(n) = {threshold:.3g}; "
                "expect inflated variance"
            ),
        )
    return KCondition(ok=True, statistic=statistic, threshold=threshold, message=None)
