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


def _check_filter(h: np.ndarray, order: int) -> None:
    if abs(h.sum() - math.sqrt(2.0)) > _FILTER_SUM_TOL:
        raise ConfigurationError(f"order-{order} filter does not sum to sqrt(2)")
    for m in range(order):
        target = 1.0 if m == 0 else 0.0
        if abs(np.dot(h[2 * m :], h[: h.size - 2 * m]) - target) > _FILTER_ORTHO_TOL:
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
    if not 4 <= dyadic_resolution <= 16:
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
    pos = xa * (1 << resolution)
    inside = (xa >= 0.0) & (xa <= width)
    pos = np.where(inside, pos, 0.0)
    i0 = np.floor(pos).astype(np.int64)
    i0 = np.minimum(i0, table.size - 2)
    frac = pos - i0
    out = np.where(inside, table[i0] * (1.0 - frac) + table[i0 + 1] * frac, 0.0)
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out


def father_at(family: WaveletFamily, x) -> np.ndarray | float:
    """Father function value(s) at x; zero outside [0, 2p-1]."""
    return _table_at(family.father_table, family.dyadic_resolution, family.support_length, x)


def mother_at(family: WaveletFamily, x) -> np.ndarray | float:
    """Mother function value(s) at x; zero outside [0, 2p-1]."""
    return _table_at(family.mother_table, family.dyadic_resolution, family.support_length, x)


def tensor_basis_at(family: WaveletFamily, index: BasisIndex, x) -> float:
    """Evaluate the tensor-product basis function phi/psi^(q)_{j,z} at a point.

    Returns 2**(d*j/2) * prod_a u_a(2**j x_a - z_a) with u_a the father when
    bit a of the orientation is 0 and the mother when it is 1.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.asarray(index.translate, dtype=float)
    d = z.size
    if xa.size != d:
        raise ValueError(f"point dimension {xa.size} does not match index dimension {d}")
    if not 0 <= index.orientation < (1 << d):
        raise ValueError(f"orientation {index.orientation} out of range for d={d}")
    args = np.ldexp(xa, index.level) - z
    value = 2.0 ** (d * index.level / 2.0)
    for a in range(d):
        if (index.orientation >> a) & 1:
            value *= mother_at(family, args[a])
        else:
            value *= father_at(family, args[a])
    return float(value)


def supported_translates(family: WaveletFamily, j: int, x, d: int) -> list[tuple[int, ...]]:
    """Integer translates z whose level-j basis support contains the point.

    Per axis these are the 2p-1 (or fewer) integers with 2**j x - z inside
    the open support (0, 2p-1).  For the Haar family the left endpoint is
    included as well, since its father does not vanish there; this keeps the
    list free of false negatives at lattice points.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if xa.size != d:
        raise ValueError(f"point dimension {xa.size} does not match d={d}")
    width = family.support_length
    per_axis = []
    for a in range(d):
        t = math.ldexp(float(xa[a]), j)
        top = math.floor(t)
        lo = top - (width - 1)
        if t == top and family.order > 1:
            top -= 1  # father vanishes at 0 for p >= 2
        per_axis.append(range(lo, top + 1))
    out: list[tuple[int, ...]] = []
    idx = [0] * d
    # cartesian product in lexicographic order
    def rec(a: int, prefix: tuple[int, ...]) -> None:
        if a == d:
            out.append(prefix)
            return
        for z in per_axis[a]:
            rec(a + 1, prefix + (z,))

    rec(0, ())
    return out


def refinement_coefficients(
    family: WaveletFamily, d: int, q: int
) -> dict[tuple[int, ...], float]:
    """Two-scale coefficients c_k of the orientation-q tensor basis.

    With the 2**(d*j/2) normalization the d-variate relation is
    u^(q)_{j,z} = sum_k c_k phi_{j+1, 2z+k}, where c_k is the plain tensor
    product over axes of the low-pass (bit 0) / high-pass (bit 1) filters.
    """
    if not 0 <= q < (1 << d):
        raise ValueError(f"orientation {q} out of range for d={d}")
    filters = [family.highpass if (q >> a) & 1 else family.lowpass for a in range(d)]
    taps = len(filters[0])
    out: dict[tuple[int, ...], float] = {}

    def rec(a: int, key: tuple[int, ...], value: float) -> None:
        if a == d:
            out[key] = value
            return
        for k in range(taps):
            rec(a + 1, key + (k,), value * filters[a][k])

    rec(0, (), 1.0)
    return out


def approx_kernel(family: WaveletFamily, j: int, x, y) -> float:
    """Projection kernel K_j(x, y) = sum_z phi_{j,z}(x) phi_{j,z}(y).

    The sum runs over the intersection of the supported translates at the
    two points, hence it is finite.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    if xa.size != ya.size:
        raise ValueError("x and y must share a dimension")
    d = xa.size
    zs = set(supported_translates(family, j, xa, d)) & set(
        supported_translates(family, j, ya, d)
    )
    total = 0.0
    for z in sorted(zs):
        index = BasisIndex(j, z, 0)
        total += tensor_basis_at(family, index, xa) * tensor_basis_at(family, index, ya)
    return total
