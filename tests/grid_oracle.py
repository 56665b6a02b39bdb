"""Whole-grid evaluation of callables, kept as a test oracle for the chunked
grid walk.

Before grids were walked a chunk of cells at a time, a callable density was
evaluated on the (R^d, d) array of every cell center at once, and so was the
mixture normalizer's 1024^d quadrature.  These are those forms, with the same
arithmetic; the chunked walk must reproduce their values bit for bit.  The
point-wise mixture pdf (``raw_mixture_pdf``, ``density_pdf``) is the form the
package evaluated before ``_mixture_on_grid`` solved a diagonal component
once per axis, and the reference that function must match bit for bit.
"""

import math

import numpy as np

from wavedens.metrics import GridSpec
from wavedens.simulation import _NORMALIZER_RESOLUTION, _box_volume


def raw_mixture_pdf(weights, means, covariances, points) -> np.ndarray:
    """The untruncated mixture pdf at each row of ``points``."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    out = np.zeros(pts.shape[0])
    for w, mu, cov in zip(weights, means, covariances):
        chol = np.linalg.cholesky(cov)
        diff = pts - mu
        sol = np.linalg.solve(chol, diff.T)
        quad = np.sum(sol * sol, axis=0)
        norm = (2.0 * math.pi) ** (d / 2.0) * np.prod(np.diag(chol))
        out += w * np.exp(-0.5 * quad) / norm
    return out


def density_pdf(spec, points) -> np.ndarray:
    """Truncated-mixture pdf at arbitrary points (zero outside the box)."""
    pts = np.asarray(points, dtype=float)
    inside = np.all((pts >= spec.domain[:, 0]) & (pts <= spec.domain[:, 1]), axis=1)
    if spec.is_uniform:
        return inside / _box_volume(spec.domain)
    vals = raw_mixture_pdf(spec.weights, spec.means, spec.covariances, pts)
    return np.where(inside, vals / spec.normalizer, 0.0)


def normalizer(spec) -> float:
    """The mixture's mass on its box, by midpoint quadrature over all cells."""
    grid = GridSpec.from_box(spec.domain, _NORMALIZER_RESOLUTION)
    values = raw_mixture_pdf(spec.weights, spec.means, spec.covariances, grid.cell_centers())
    return float(values.sum() * grid.cell_volume)


def true_density_values(spec, grid: GridSpec) -> np.ndarray:
    """The truncated-mixture density at every cell center, in grid shape."""
    values = np.asarray(density_pdf(spec, grid.cell_centers()), dtype=float)
    return values.reshape((grid.resolution,) * grid.d)
