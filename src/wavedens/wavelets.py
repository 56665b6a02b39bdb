"""Compactly supported orthonormal wavelet families (Daubechies type).

A family bundles the refinement (low-pass) filter, the derived high-pass
filter, and tabulated values of the father and mother functions on a dyadic
grid.  Tables are exact at dyadic rationals: integer values come from the
eigenvector (eigenvalue 1) of the refinement matrix, deeper levels from
recursive application of the two-scale relation

    phi(x) = sqrt(2) * sum_k h[k] * phi(2x - k),

so the relation holds to float precision at every tabulated point.  Between
table points, evaluation interpolates linearly.

Multivariate basis functions are tensor products.  The orientation index
``q`` selects, per axis, the father (bit 0) or mother (bit 1) factor; q = 0
is the pure father product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

MAX_ORDER = 10
DEFAULT_RESOLUTION = 10
RESOLUTIONS = range(4, 17)

# build-time filter sanity tolerances
_FILTER_SUM_TOL = 1e-12
_FILTER_ORTHO_TOL = 1e-12


class BasisIndex(NamedTuple):
    """(level, translate, orientation) triplet indexing one basis function."""

    level: int
    translate: tuple[int, ...]
    orientation: int


@dataclass(frozen=True)
class WaveletFamily:
    """A Daubechies family of a given order with tabulated father/mother values.

    ``lowpass`` is normalized so that its entries sum to sqrt(2); the support
    of both father and mother is [0, 2*order - 1].  Tables hold values at
    m / 2**dyadic_resolution for m = 0 .. (2*order - 1) * 2**dyadic_resolution.
    """

    order: int
    lowpass: np.ndarray
    highpass: np.ndarray
    support: tuple[float, float]
    dyadic_resolution: int
    father_table: np.ndarray
    mother_table: np.ndarray

    @property
    def support_length(self) -> int:
        return 2 * self.order - 1


def daubechies_filter(order: int) -> np.ndarray:
    """Extremal-phase Daubechies refinement filter of the given order.

    Derived by spectral factorization: the half-band polynomial
    P(y) = sum_k C(order-1+k, k) y^k is rooted, each root y is mapped to the
    reciprocal pair solving z^2 - (2 - 4y) z + 1 = 0, and the factor built
    from the in-disk roots is attached to (1 + z)^order.  The result is
    normalized to sum to sqrt(2) and oriented front-loaded (extremal phase).
    """
    if order < 1 or order > MAX_ORDER:
        raise ConfigurationError(
            f"unsupported wavelet order {order}: filters available for 1..{MAX_ORDER}"
        )
    if order == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)

    # P(y), ascending; degree order-1
    pc = np.array([math.comb(order - 1 + k, k) for k in range(order)], dtype=float)
    yroots = np.roots(pc[::-1]).astype(complex)
    # Newton polish: the companion-matrix roots are good but not at float limit
    dpc = pc[1:] * np.arange(1, order)
    for _ in range(3):
        pval = np.polyval(pc[::-1], yroots)
        dval = np.polyval(dpc[::-1], yroots)
        yroots = yroots - pval / dval

    zroots = []
    for y in yroots:
        b = 2.0 - 4.0 * y
        sq = np.sqrt(b * b - 4.0 + 0j)
        z1 = (b + sq) / 2.0
        z2 = (b - sq) / 2.0
        zroots.append(z1 if abs(z1) < 1.0 else z2)

    # (1 + z)^order times the minimal factor; np.poly gives descending coeffs
    hpoly = np.poly(np.array(zroots))
    for _ in range(order):
        hpoly = np.convolve(hpoly, [1.0, 1.0])
    h = np.real(hpoly)
    h = h * (math.sqrt(2.0) / h.sum())
    # extremal phase = energy at the front
    idx = np.arange(h.size)
    if np.sum(idx * h * h) > np.sum((h.size - 1 - idx) * h * h):
        h = h[::-1]

    _check_filter(h, order)
    return h


def _filter_errors(h: np.ndarray) -> tuple[float, list[float]]:
    """|sum(h) - sqrt(2)| and, for each lag 2m with m < len(h) / 2, the
    shift-orthonormality error |<h[2m:], h[:len(h) - 2m]> - delta_m|."""
    lags = [
        abs(np.dot(h[2 * m :], h[: h.size - 2 * m]) - (1.0 if m == 0 else 0.0))
        for m in range(h.size // 2)
    ]
    return abs(h.sum() - math.sqrt(2.0)), lags


def _check_filter(h: np.ndarray, order: int) -> None:
    sum_error, lag_errors = _filter_errors(h)
    if sum_error > _FILTER_SUM_TOL:
        raise ConfigurationError(f"order-{order} filter does not sum to sqrt(2)")
    for m, error in enumerate(lag_errors):
        if error > _FILTER_ORTHO_TOL:
            raise ConfigurationError(
                f"order-{order} filter fails shift orthonormality at lag {2 * m}"
            )


def highpass_from_lowpass(h: np.ndarray) -> np.ndarray:
    """Quadrature-mirror high-pass filter g[k] = (-1)^k h[2p-1-k]."""
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


def build_family(order: int, dyadic_resolution: int = DEFAULT_RESOLUTION) -> WaveletFamily:
    """Construct a Daubechies family with tables at the requested resolution.

    Integer father values are the eigenvalue-1 eigenvector of the refinement
    matrix M[i, j] = sqrt(2) h[2i - j], normalized so the integer values sum
    to one; dyadic levels are then filled by exact recursion.  The mother
    table follows from the wavelet equation with the high-pass filter.
    """
    if dyadic_resolution not in RESOLUTIONS:
        raise ConfigurationError("dyadic_resolution must lie in [4, 16]")
    h = daubechies_filter(order)
    g = highpass_from_lowpass(h)
    p = order
    r = dyadic_resolution
    width = 2 * p - 1
    n_entries = width << r

    father = np.zeros(n_entries + 1)
    if p == 1:
        father[0] = 1.0  # indicator of [0, 1)
    else:
        m = np.zeros((width - 1, width - 1))
        for i in range(1, width):
            for j in range(1, width):
                kk = 2 * i - j
                if 0 <= kk <= width:
                    m[i - 1, j - 1] = math.sqrt(2.0) * h[kk]
        eigvals, eigvecs = np.linalg.eig(m)
        pick = int(np.argmin(np.abs(eigvals - 1.0)))
        vec = np.real(eigvecs[:, pick])
        vec = vec / vec.sum()
        father[(np.arange(1, width)) << r] = vec

    ks = np.arange(2 * p)
    k_scaled = ks << r
    for level in range(1, r + 1):
        step = 1 << (r - level)
        t = np.arange(step, n_entries, 2 * step)
        args = 2 * t[:, None] - k_scaled[None, :]
        valid = (args >= 0) & (args <= n_entries)
        vals = np.where(valid, father[np.clip(args, 0, n_entries)], 0.0)
        father[t] = math.sqrt(2.0) * vals @ h

    t_all = np.arange(n_entries + 1)
    args = 2 * t_all[:, None] - k_scaled[None, :]
    valid = (args >= 0) & (args <= n_entries)
    vals = np.where(valid, father[np.clip(args, 0, n_entries)], 0.0)
    mother = math.sqrt(2.0) * vals @ g

    father.setflags(write=False)
    mother.setflags(write=False)
    return WaveletFamily(
        order=order,
        lowpass=h,
        highpass=g,
        support=(0.0, float(width)),
        dyadic_resolution=r,
        father_table=father,
        mother_table=mother,
    )


@lru_cache(maxsize=32)
def cached_family(order: int, dyadic_resolution: int = DEFAULT_RESOLUTION) -> WaveletFamily:
    return build_family(order, dyadic_resolution)


def _table_at(table: np.ndarray, resolution: int, width: int, x) -> np.ndarray | float:
    """Linear interpolation of a support-[0, width] table; zero outside."""
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 0:
        return float(_table_at(table, resolution, width, xa.reshape(1))[0])
    # lo * (1 - frac) + hi * frac, computed in place so that at most four
    # arrays of x's shape are live besides x itself
    outside = ~((xa >= 0.0) & (xa <= width))
    pos = xa * (1 << resolution)
    pos[outside] = 0.0
    i0 = np.floor(pos).astype(np.int64)
    np.minimum(i0, table.size - 2, out=i0)
    pos -= i0
    out = table[i0]
    out *= 1.0 - pos
    i0 += 1
    hi = table[i0]
    hi *= pos
    out += hi
    out[outside] = 0.0
    return out
