"""Shape-preserving wavelet density estimator.

The estimator targets the square root g of the unknown density: wavelet
coefficients of g are estimated from nearest-neighbour ball volumes,

    alpha_hat[j,z]   = Gamma(k)/Gamma(k+1/2) * n^(-1/2)
                       * sum_i phi_{j,z}(X_i) * sqrt(V_i),

and likewise for the detail coefficients with the mother tensor factors.
Squaring the reconstruction yields a nonnegative density estimate, and
dividing every coefficient by the root of the total squared mass enforces
unit integral exactly (the basis is orthonormal).

Basis functions are evaluated at sample coordinates floored to the dyadic
grid of the family's table (a perturbation below 2**-r per axis that never
crosses a dyadic cell boundary).  At snapped coordinates every table lookup
is exact, so the two-scale relation between levels holds to float precision
and filtering fine-level coefficients reproduces direct coarse-level
estimation almost bit-exactly.

A level that holds the father block alone (the top of a fit's pyramid, and
every trend-only estimate) is scattered by column: on axis 0 a point's
father values depend only on its snapped coordinate, one of at most
2**r + 1 columns, so each point is scattered over the later axes only and
one contraction per band offset folds the columns into the block.  A level
with detail orientations scatters each point's full tensor band.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType

import numpy as np
from scipy.special import gammaln

from .errors import (
    BudgetError,
    DataError,
    DegenerateModelError,
    EstimationError,
    KConsistencyWarning,
)
from .neighbors import as_points, knn_stats, unit_ball_volume, validate_k
from .wavelets import DEFAULT_RESOLUTION, MAX_ORDER, BasisIndex, WaveletFamily, cached_family, _table_at

SCHEMA_VERSION = 1

# bytes of per-row intermediates that coefficient estimation (a chunk's
# snapped points, band values, flat indices and products) and point
# reconstruction (a block's factor columns, interpolation scratch and partial
# contractions) each hold at once, as does the column table of a father-only
# level; estimation adds the chunks in point order, so its sums are the same
# bits for any chunk size (for a father-only level, any that holds one
# level-j cell of its column table)
_CHUNK_BYTES = 1 << 20

# cells that the bounding boxes of a coefficient file's blocks may span in
# all, and that a grid (``metrics.GridSpec``) may hold (8 bytes each); a
# larger file or grid is rejected before any allocation
_MAX_FILE_CELLS = 1 << 24


@dataclass(frozen=True, eq=False)
class EstimatorConfig:
    """Configuration of one fit.

    J = j0 - 1 requests the trend-only estimator.  The points must lie in
    the unit cube.  ``threshold_constant`` switches on soft thresholding of
    the detail coefficients before normalization.
    """

    wavelet_order: int = 6
    j0: int = 0
    J: int = 0
    k: int = 1
    normalize: bool = True
    threshold_constant: float | None = None

    def __post_init__(self):
        if self.J < self.j0 - 1:
            raise ValueError(f"J must be >= j0 - 1, got J={self.J}, j0={self.j0}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # written so that NaN fails too
        if self.threshold_constant is not None and not self.threshold_constant >= 0:
            raise ValueError(f"threshold_constant must be >= 0, got {self.threshold_constant}")


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Estimated coefficients as dense per-(level, orientation) blocks.

    ``blocks`` maps (j, q), in sorted order, to (zmin, dense): dense[i] is
    the coefficient of translate zmin + i.  Each block is a C-order array
    cut to the bounding box of its nonzeros and no block is all zero, so a
    fitted set and its file read-back evaluate to the same bits; ``entries``
    is a read-only BasisIndex view of the nonzeros for code outside the fit,
    evaluation and file paths.  The father block lies at level j0 and the
    detail blocks at j0..J, so a trend-only set (J = j0 - 1) holds the
    father block alone.  The basis is the Daubechies family of
    ``wavelet_order``.
    """

    blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    d: int
    n: int
    k: int
    j0: int
    J: int
    wavelet_order: int
    normalized: bool
    kind: str = "shape-preserving"

    @property
    def family(self) -> WaveletFamily:
        """The wavelet family of the set's basis, with its tables at the
        fixed dyadic resolution."""
        return cached_family(self.wavelet_order, DEFAULT_RESOLUTION)

    @functools.cached_property
    def entries(self) -> MappingProxyType:
        """Nonzero coefficients keyed by BasisIndex in (level, orientation,
        translate) order."""
        view: dict[BasisIndex, float] = {}
        for (j, q), (zmin, dense) in self.blocks.items():
            zs = (np.argwhere(dense) + zmin).tolist()
            view.update(zip((BasisIndex(j, tuple(z), q) for z in zs), dense[dense != 0].tolist()))
        return MappingProxyType(view)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientSet):
            return NotImplemented
        meta = all(getattr(self, f.name) == getattr(other, f.name) for f in dataclasses.fields(self)[1:])
        return meta and list(self.blocks) == list(other.blocks) and all(
            np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            for a, b in zip(self.blocks.values(), other.blocks.values())
        )


def _trimmed(blocks) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Blocks in sorted (level, orientation) order, each cut to the bounding
    box of its nonzeros (with -0.0 made +0.0) as a C-order copy; all-zero
    blocks are dropped."""
    out = {}
    for key in sorted(blocks):
        zmin, dense = blocks[key]
        nz = np.nonzero(dense)
        if nz[0].size == 0:
            continue
        box = tuple(slice(ax.min(), ax.max() + 1) for ax in nz)
        out[key] = (zmin + np.array([s.start for s in box]), np.add(dense[box], 0.0, order="C"))
    return out


def consistency_factor(k: int) -> float:
    """Bias-removing constant Gamma(k) / Gamma(k + 1/2), via log-gamma."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(math.exp(gammaln(k) - gammaln(k + 0.5)))


def _check_in_unit_cube(pts: np.ndarray) -> None:
    """Raise EstimationError unless every point lies in the closed unit cube."""
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise EstimationError(
            "points fall outside the unit cube; "
            "rescale them first with rescale_to_domain"
        )


def snap_to_dyadic(points: np.ndarray) -> np.ndarray:
    """Integer coordinates floor(x * 2**r) used for basis lookups, at the
    tables' dyadic resolution r.

    Flooring never crosses a dyadic cell boundary, so Haar basis values are
    preserved exactly; for smoother families the perturbation is below
    2**-r per axis.
    """
    return np.floor(np.ldexp(points, DEFAULT_RESOLUTION)).astype(np.int64)


def _band(family: WaveletFamily, snapped: np.ndarray, j: int):
    """The translate band of every point at level j.

    Returns (z_base, frac): z_base is the smallest banded translate per
    point and axis, and frac the point's offset within its level-j cell in
    table steps, so that translate z_base + o sits at table index
    frac + ((2p-2-o) << r).
    """
    r = family.dyadic_resolution
    t_idx = snapped << j
    return (t_idx >> r) - (family.support_length - 1), t_idx & ((1 << r) - 1)


def _band_rows(family: WaveletFamily, table: np.ndarray) -> np.ndarray:
    """The table as a (2**r, 2p-1) array whose row frac holds the values at
    the 2p-1 band offsets of ``_band``, so one row gather serves a point."""
    width = family.support_length
    return np.ascontiguousarray(table[: width << family.dyadic_resolution].reshape(width, -1)[::-1].T)


def _column_extremes(points) -> np.ndarray:
    """The (2, d) per-axis minima and maxima, one column at a time: a
    strided column reduces an order of magnitude faster than
    ``min(axis=0)`` of a C-order array, and both are exact."""
    return np.array([[f(points[:, a]) for a in range(points.shape[1])] for f in (np.min, np.max)])


def _level_box(family, extremes, j):
    """(zmin, shape) of the translates that points with the snapped (2, d)
    per-axis ``extremes`` reach at level j: snapping and the band start are
    monotone in each coordinate, so the extreme points bound the band."""
    zmin, zmax = _band(family, extremes, j)[0]
    return zmin, tuple(int(w) for w in zmax - zmin + family.support_length)


def _refuse_past_budget(shapes, counted: str = "") -> None:
    """Raise BudgetError, before a scatter allocates, when the blocks of
    ``shapes`` ((j, q), shape pairs) span more than ``_MAX_FILE_CELLS``
    cells in all; ``counted`` names what else the shapes count."""
    past = _cells_past_budget(shapes)
    if past is not None:
        raise BudgetError(f"the estimate's {past}{counted}")


def _accumulate_level(family, points, qs, weights, j):
    """Scatter-add weighted tensor basis values at the snapped ``points`` into
    dense per-q blocks, chunk by chunk, for every row of the (m, n)
    ``weights``; returns m block maps.

    Each chunk snaps its own points.  The band-table gather (of the tables
    the orientations use), the flat indices and the tensor products of a
    chunk are shared by all rows, and each row's weighted products and sums
    keep the arithmetic of a one-row call.  A point's band lies inside every
    block, so counting the blocks against the budget bounds the chunks too."""
    n, d = points.shape
    width = family.support_length
    zmin, shape = _level_box(family, snap_to_dyadic(_column_extremes(points)), j)
    _refuse_past_budget([((j, q), shape) for q in qs])
    strides = np.array([math.prod(shape[a + 1 :]) for a in range(d)], dtype=np.int64)
    offs = np.indices((width,) * d).reshape(d, -1).T @ strides
    rows = max(1, _CHUNK_BYTES // (8 * (3 * offs.size + 3 * d * width)))
    scale = 2.0 ** (d * j / 2.0)
    # the tables the orientations use: bit a of q picks the mother on axis a
    tables = (family.father_table, family.mother_table)
    band_rows = {bit: _band_rows(family, tables[bit]) for bit in {(q >> a) & 1 for q in qs for a in range(d)}}
    dense = np.zeros((len(weights), len(qs), math.prod(shape)))
    # flat indices and weighted products of a chunk, reused chunk after chunk
    lin = np.empty((min(rows, n), offs.size), dtype=np.int64)
    weighted = np.empty(lin.shape)
    for start in range(0, n, rows):
        z_base, frac = _band(family, snap_to_dyadic(points[start : start + rows]), j)
        vals = {bit: table[frac] for bit, table in band_rows.items()}
        size = len(z_base)
        np.add(((z_base - zmin) @ strides)[:, None], offs, out=lin[:size])
        for iq, q in enumerate(qs):
            prod = vals[q & 1][:, 0]
            for a in range(1, d):
                prod = np.einsum("ni,nj->nij", prod, vals[(q >> a) & 1][:, a]).reshape(size, -1)
            for sums, w in zip(dense[:, iq], weights):
                np.multiply(prod, (w[start : start + rows] * scale)[:, None], out=weighted[:size])
                np.add.at(sums, lin[:size].ravel(), weighted[:size].ravel())
    return [{(j, q): (zmin, block.reshape(shape)) for q, block in zip(qs, level)} for level in dense]


def _father_level(family, points, weights, j):
    """The father block at level j of every row of the (m, n) ``weights``:
    ``_accumulate_level(family, points, [0], weights, j)`` to rounding, from
    one scatter per point over axes 1..d-1 only.

    A point's father values on axis 0 depend only on its snapped first
    coordinate s, its column (there are at most 2**r + 1).  So each row
    first scatter-adds, points in order, every point's weighted band over
    the later axes into a table T[s, rest]; then it contracts axis 0, where
    the 2p-1 band values of column s are the ``_band_rows`` row at s's
    offset within its level-j cell: one einsum per band offset sums the
    columns of each cell, and the cells add into the block in column order.

    T holds at most ``_CHUNK_BYTES`` (or one column, where a column alone is
    larger): the columns are walked in ranges of whole cells, or, where a
    cell's table does not fit, in power-of-two runs of one cell's columns,
    and each range rescans the points.  The box and one column of T count
    against ``_MAX_FILE_CELLS`` before anything is allocated.  A row keeps
    the bits of a one-row call, and of any chunk size that holds a cell."""
    n, d = points.shape
    r = family.dyadic_resolution
    width = family.support_length
    extremes = snap_to_dyadic(_column_extremes(points))
    zmin, shape = _level_box(family, extremes, j)
    rest = math.prod(shape[1:])
    _refuse_past_budget([((j, 0), shape), ((j, 0), (1,) + shape[1:])], ", counting one column of its scatter table")
    s_lo, s_hi = extremes[:, 0]
    # columns per level-j cell; every column from 0 to 2**r lies in one cell below level 0
    cell = 1 << min(max(r - j, 0), r + 1)
    # the columns of T that fit the budget; the run of them that one einsum sums;
    # the weight rows that share a walk of the points; the columns of one range
    fit = max(1, _CHUNK_BYTES // (8 * rest))
    run = min(cell, 1 << (fit.bit_length() - 1))
    group = max(1, min(len(weights), fit // run))
    span = run << ((fit // group // run).bit_length() - 1)
    # flat offsets of a point's band over axes 1..d-1 from its corner in T
    offs = np.zeros(1, dtype=np.int64)
    for a in range(1, d):
        offs = (offs[:, None] * shape[a] + np.arange(width)).ravel()
    rows = max(1, _CHUNK_BYTES // (8 * (3 * offs.size + 3 * d * width)))
    scale = 2.0 ** (d * j / 2.0)
    band_rows = _band_rows(family, family.father_table)
    dense = np.zeros((len(weights), math.prod(shape)))
    for g in range(0, len(weights), group):
        for lo in range(s_lo - s_lo % min(span, cell), s_hi + 1, span):
            hi = min(lo + span, (s_hi // cell + 1) * cell)
            table = np.zeros((len(weights[g : g + group]), hi - lo, rest))
            for start in range(0, n, rows):
                chunk, picked = points[start : start + rows], slice(start, start + rows)
                if lo > s_lo or hi <= s_hi:
                    # this range holds only some of the columns: keep the chunk's points in it
                    column = snap_to_dyadic(chunk[:, 0])
                    kept = np.flatnonzero((column >= lo) & (column < hi))
                    if not kept.size:
                        continue
                    chunk, picked = chunk[kept], start + kept
                snapped = snap_to_dyadic(chunk)
                z_base, frac = _band(family, snapped, j)
                corner = snapped[:, 0] - lo
                prod = np.ones((len(snapped), 1))
                for a in range(1, d):
                    corner = corner * shape[a] + z_base[:, a] - zmin[a]
                    vals = band_rows[frac[:, a]]
                    prod = vals if a == 1 else np.einsum("ni,nj->nij", prod, vals).reshape(len(snapped), -1)
                lin = (corner[:, None] + offs).ravel()
                for t, w in zip(table, weights[g : g + group]):
                    np.add.at(t.reshape(-1), lin, (prod * (w[picked] * scale)[:, None]).ravel())
            # the band rows of one cell's columns in this range, one band offset a row
            cols = np.arange(lo, lo + min(hi - lo, cell))
            taps = np.ascontiguousarray(band_rows[_band(family, cols[:, None], j)[1][:, 0]].T)
            first = int(_band(family, np.array([[lo]]), j)[0][0, 0] - zmin[0])
            step = 1 << max(j - r, 0)
            cells = len(table[0]) // len(cols)
            for t, out in zip(table, dense[g : g + group]):
                t = t.reshape(cells, len(cols), rest)
                out = out.reshape(shape[0], rest)
                # offsets from the last, so that each translate adds its cells in column order
                for o in reversed(range(width)):
                    out[first + o : first + o + step * cells : step] += np.einsum("t,ctr->cr", taps[o], t)
    return [{(j, 0): (zmin, block.reshape(shape))} for block in dense]


def _coefficient_sums(points, weights, config: EstimatorConfig):
    """Trimmed coefficient sums of every row of the (m, n) ``weights``: a
    trend-only config takes ``_father_level`` at j0, any other scatters
    every level j0..J through ``_accumulate_level``."""
    family = cached_family(config.wavelet_order, DEFAULT_RESOLUTION)
    if config.J < config.j0:
        return [_trimmed(level) for level in _father_level(family, points, weights, config.j0)]
    details = list(range(1, 1 << points.shape[1]))
    sums = [{} for _ in weights]
    for j in range(config.j0, config.J + 1):
        qs = ([0] if j == config.j0 else []) + details
        for blocks, level in zip(sums, _accumulate_level(family, points, qs, weights, j)):
            blocks.update(level)
    return [_trimmed(blocks) for blocks in sums]


def estimate_coefficients(points, config: EstimatorConfig, *, _stacklevel: int = 2) -> CoefficientSet:
    """Estimate raw (unnormalized, unthresholded) coefficients of sqrt(f).

    Neighbour statistics are computed once and shared across all basis
    indices; duplicated points contribute zero-volume terms.  Coefficients
    whose accumulated sum is exactly zero are absent from the entries view.
    This is the one-k case of ``estimate_coefficient_sets``.
    """
    return _estimate_sets(points, config, [config.k], _stacklevel + 1)[0]


def estimate_coefficient_sets(points, config: EstimatorConfig, ks) -> list[CoefficientSet]:
    """``estimate_coefficients`` at every k in ``ks`` (``config.k`` is unused),
    one set per k with the same bits as a one-k call.

    One k-d tree query serves every k, and the basis values of each point
    are looked up once and weighted by each k's ball volumes.
    """
    return _estimate_sets(points, config, ks, 3)


def _estimate_sets(points, config: EstimatorConfig, ks, stacklevel: int) -> list[CoefficientSet]:
    """The sets of ``estimate_coefficient_sets``; a k warning names the frame
    ``stacklevel`` calls up from here, as ``warnings.warn`` counts them."""
    pts = as_points(points)
    n, d = pts.shape
    if n < 2:
        raise EstimationError(f"need at least 2 points to estimate, got {n}")
    for k in ks:
        if k >= n:
            raise EstimationError(f"k={k} requires at least k+1={k + 1} points")
    _check_in_unit_cube(pts)
    for k in ks:
        verdict = validate_k(n, k)
        if not verdict.ok:
            warnings.warn(verdict.message, KConsistencyWarning, stacklevel=stacklevel)
    # each row of radii becomes the weights consistency_factor(k) / sqrt(n)
    # * sqrt(c0 * r**d) in place, with the same operations as that expression
    weights = knn_stats(pts, ks)
    c0 = unit_ball_volume(d)
    for k, w in zip(ks, weights):
        w **= d
        w *= c0
        np.sqrt(w, out=w)
        w *= consistency_factor(k) / math.sqrt(n)
    return [
        CoefficientSet(
            blocks=blocks,
            d=d,
            n=n,
            k=k,
            j0=config.j0,
            J=config.J,
            wavelet_order=config.wavelet_order,
            normalized=False,
            kind="shape-preserving",
        )
        for k, blocks in zip(ks, _coefficient_sums(pts, weights, config))
    ]


def normalization_mass(coeffs: CoefficientSet) -> float:
    """Total squared coefficient mass; equals the integral of the squared
    reconstruction because the basis is orthonormal."""
    # the nonzeros in entry order: padding zeros would regroup the BLAS sum
    vals = np.concatenate([dense[dense != 0] for _, dense in coeffs.blocks.values()] or [np.zeros(0)])
    return float(vals @ vals)


def normalize(coeffs: CoefficientSet) -> CoefficientSet:
    """Scale all coefficients so the squared mass is one."""
    mass = normalization_mass(coeffs)
    if not 0.0 < mass < math.inf:
        raise DegenerateModelError(f"cannot normalize a coefficient set of mass {mass}")
    if coeffs.normalized and abs(mass - 1.0) <= 1e-12:
        return coeffs
    scale = 1.0 / math.sqrt(mass)
    blocks = {key: (zmin, dense * scale) for key, (zmin, dense) in coeffs.blocks.items()}
    return dataclasses.replace(coeffs, blocks=blocks, normalized=True)


def soft_threshold(coeffs: CoefficientSet, threshold_constant: float) -> CoefficientSet:
    """Soft-threshold detail entries with level-dependent threshold
    t_j = C sqrt(j+1) / sqrt(n), n the set's sample size; trend blocks and
    the level -1 details (t_{-1} = 0, for an infinite C too) are untouched
    and exact zeros are trimmed away.  Raises ValueError for a
    constant that is negative or NaN, and for a detail level below -1,
    where sqrt(j+1) is undefined."""
    if not threshold_constant >= 0:
        raise ValueError(f"threshold constant must be >= 0, got {threshold_constant}")
    if threshold_constant == 0.0:
        return coeffs
    if coeffs.j0 < -1 and coeffs.J >= coeffs.j0:
        raise ValueError(f"detail level j={coeffs.j0} has no threshold: t_j = C sqrt(j+1) / sqrt(n) needs j >= -1")
    blocks = {}
    for (j, q), (zmin, dense) in coeffs.blocks.items():
        if q and j >= 0:
            t_j = threshold_constant * math.sqrt(j + 1) / math.sqrt(coeffs.n)
            dense = np.copysign(np.maximum(np.abs(dense) - t_j, 0.0), dense)
        blocks[(j, q)] = (zmin, dense)
    return dataclasses.replace(coeffs, blocks=_trimmed(blocks), normalized=False)


def truncate_details(coeffs: CoefficientSet, new_J: int) -> CoefficientSet:
    """Drop detail levels above new_J; equals a direct fit at the lower J."""
    if new_J > coeffs.J or new_J < coeffs.j0 - 1:
        raise ValueError(f"new_J must lie in [{coeffs.j0 - 1}, {coeffs.J}]")
    if new_J == coeffs.J:
        return coeffs
    blocks = {(j, q): block for (j, q), block in coeffs.blocks.items() if q == 0 or j <= new_J}
    return dataclasses.replace(coeffs, blocks=blocks, J=new_J, normalized=False)


def _axis_step(zmin, block, taps, axis: int):
    """One analysis step along one axis of a block whose entry i holds
    translate zmin + i; returns the new (zmin, block): coarse[c] =
    sum_t taps[t] * fine[2c + t] for every c the block reaches, c in
    [ceil((zmin - (2p-1))/2), floor(zmax/2)].
    """
    x = np.moveaxis(block, axis, 0)
    z = int(zmin[axis])
    lo = -((len(taps) - 1 - z) // 2)
    m = (z + len(x) - 1) // 2 - lo + 1  # coarse length
    # fine translates 2 * lo + [0, 2m + 2p - 2): every 2c + t of the coarse range
    fine = np.zeros((2 * m + len(taps) - 2,) + x.shape[1:])
    fine[z - 2 * lo : z - 2 * lo + len(x)] = x
    out = sum(h * fine[t : t + 2 * m : 2] for t, h in enumerate(taps))
    zmin = zmin.copy()
    zmin[axis] = lo
    return zmin, np.moveaxis(out, 0, axis)


def dilation_coefficients(fine: CoefficientSet) -> CoefficientSet:
    """Filter a trend-only set at level j+1 down to trend and details at j.

    This is the analysis half of the filter bank, split axis by axis into
    low- and high-pass halves (bit a of q is the high-pass half on axis a);
    it reproduces direct estimation at the coarse level entry by entry (to
    float precision).
    """
    if fine.J != fine.j0 - 1:
        raise ValueError(f"dilation_coefficients expects a trend-only set (J = j0 - 1), got j0={fine.j0}, J={fine.J}")
    coarse_level = fine.J
    parts = {0: fine.blocks[(fine.j0, 0)]} if (fine.j0, 0) in fine.blocks else {}
    for a in range(fine.d):
        parts = {
            q | bit << a: _axis_step(*block, taps, a)
            for q, block in parts.items()
            for bit, taps in enumerate((fine.family.lowpass, fine.family.highpass))
        }
    return dataclasses.replace(
        fine,
        blocks=_trimmed({(coarse_level, q): block for q, block in parts.items()}),
        j0=coarse_level,
        J=coarse_level,
    )


@dataclass(frozen=True)
class AffineMap:
    """Per-axis affine change of coordinates y = scale * x + offset."""

    scale: np.ndarray
    offset: np.ndarray

    def forward(self, points) -> np.ndarray:
        return as_points(points) * self.scale + self.offset

    def inverse(self, points) -> np.ndarray:
        return (as_points(points) - self.offset) / self.scale

    @property
    def jacobian(self) -> float:
        """Volume scaling dy/dx; multiply a model density evaluated at
        forward(x) by this factor to recover a density in x coordinates."""
        return float(np.prod(self.scale))


def rescale_to_domain(points, padding: float = 0.0):
    """Affinely map the data's (padded) bounding box onto the unit cube.

    Returns the transformed points and the affine record needed to undo the
    map or to back-transform densities with the Jacobian correction.  A
    mapped coordinate that rounds past 0 or 1 is clipped onto the edge; the
    record is not changed.
    """
    if not 0.0 <= padding < math.inf:
        raise ValueError(f"padding must be a finite number >= 0, got {padding!r}")
    pts = as_points(points)
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    lo, hi = _column_extremes(pts)
    span = hi - lo
    if np.any(span <= 0.0):
        bad = int(np.argmax(span <= 0.0))
        raise DataError(f"axis {bad} has zero range; cannot rescale")
    lo = lo - padding * span
    hi = hi + padding * span
    span = hi - lo
    scale = 1.0 / span
    # 0.0 - x rather than -x, so that a zero offset is +0.0
    offset = 0.0 - lo * scale
    mapping = AffineMap(scale=scale, offset=offset)
    mapped = mapping.forward(pts)
    return np.clip(mapped, 0.0, 1.0, out=mapped), mapping


def _axis_factors(family: WaveletFamily, j: int, q: int, zmin, shape, axes) -> list[np.ndarray]:
    """Per-axis factor matrices of one (level, orientation) block.

    Entry [i, s] of the matrix for axis a is the father (bit a of q clear)
    or mother (bit a set) at 2**j * axes[a][i] - (zmin[a] + s), so the
    block's tensor basis at a point is the product of one entry per axis.
    """
    r = family.dyadic_resolution
    width = family.support_length
    factors = []
    for a, x in enumerate(axes):
        t = np.ldexp(np.asarray(x, dtype=float), j)
        zs = zmin[a] + np.arange(shape[a], dtype=np.int64)
        table = family.mother_table if (q >> a) & 1 else family.father_table
        factors.append(_table_at(table, r, width, t[:, None] - zs[None, :]))
    return factors


@functools.lru_cache(maxsize=64)
def _grid_columns(order: int, j: int, mother: bool, axis: bytes) -> tuple[int, np.ndarray]:
    """Father (or mother) values at level j of every translate that can be
    nonzero somewhere on a grid axis, given as float64 bytes.

    Returns (zlo, columns): columns[i, s] is the value at 2**j * x[i] -
    (zlo + s), read-only, over the translates [ceil(2**j min x - (2p-1)),
    floor(2**j max x)] of the finite coordinates; ``_table_at`` is exactly
    +0.0 at every other translate.
    """
    family = cached_family(order, DEFAULT_RESOLUTION)
    x = np.frombuffer(axis)
    t = np.ldexp(x, j)
    finite = t[np.isfinite(t)]
    zlo = math.ceil(finite.min() - family.support_length) if finite.size else 0
    zhi = math.floor(finite.max()) if finite.size else -1
    (columns,) = _axis_factors(family, j, int(mother), [zlo], [zhi - zlo + 1], [x])
    columns.flags.writeable = False
    return zlo, columns


class DensityModel:
    """Coefficients evaluable as a density in the basis they name.

    For the shape-preserving kind the density is the squared reconstruction
    (nonnegative by construction); for the classical kind it is the linear
    reconstruction itself and may be negative.
    """

    def __init__(self, coefficients: CoefficientSet):
        self.family = coefficients.family
        self.coefficients = coefficients

    @property
    def d(self) -> int:
        return self.coefficients.d

    def reconstruct(self, points) -> np.ndarray:
        """Linear coefficient reconstruction at the given points.

        Each block runs over the points in chunks of as many rows as fit in
        ``_CHUNK_BYTES``, counting per row the block's factor columns, the
        interpolation scratch of its widest axis (the t - z array and three
        more in ``_table_at``) and its partial contractions; a small block
        takes long chunks and a wide one short chunks.  Every axis is
        contracted by ``np.einsum`` over C-order blocks, numpy's own loop
        whose rounding follows only the operands' layout, so a row's value
        does not depend on the rows evaluated with it."""
        pts = as_points(points)
        if pts.shape[1] != self.d:
            raise ValueError(f"expected dimension {self.d}, got {pts.shape[1]}")
        out = np.zeros(pts.shape[0])
        for (j, q), (zmin, dense) in self.coefficients.blocks.items():
            shape = dense.shape
            floats = sum(shape) + 4 * max(shape) + sum(math.prod(shape[a:]) for a in range(1, self.d + 1))
            rows = max(1, _CHUNK_BYTES // (8 * floats))
            for start in range(0, pts.shape[0], rows):
                chunk = pts[start : start + rows]
                factors = _axis_factors(self.family, j, q, zmin, shape, chunk.T)
                acc = np.einsum("ns,sr->nr", factors[0], dense.reshape(len(dense), -1))
                for a in range(1, self.d):
                    acc = np.einsum("nsr,ns->nr", acc.reshape(len(chunk), shape[a], -1), factors[a])
                out[start : start + rows] += 2.0 ** (self.d * j / 2.0) * acc[:, 0]
                # freed before the next chunk builds its own
                del factors, acc
        return out

    def reconstruct_on_axes(self, axes: list[np.ndarray]) -> np.ndarray:
        """Reconstruction on a tensor grid given per-axis coordinate arrays.

        Uses the separability of the tensor basis: one thin factor matrix
        per axis and per stored block, contracted against the dense
        coefficient array.  The factors are cut from per-axis columns cached
        by (level, father/mother, axis), which every model on the same grid
        shares.  Output shape is (len(axes[0]), ..., len(axes[d-1])).
        """
        d = self.d
        if len(axes) != d:
            raise ValueError(f"expected {d} axis arrays, got {len(axes)}")
        out = np.zeros(tuple(len(ax) for ax in axes))
        keys = [np.ascontiguousarray(ax, dtype=float).tobytes() for ax in axes]
        order = self.family.order
        for (j, q), (zmin, dense) in self.coefficients.blocks.items():
            tensor = dense
            for a, key in enumerate(keys):
                zlo, columns = _grid_columns(order, j, bool((q >> a) & 1), key)
                # the block's translates, with +0.0 where no column is stored
                factor = np.zeros((len(columns), dense.shape[a]))
                lo = int(zmin[a]) - zlo
                c0, c1 = (min(max(c, 0), columns.shape[1]) for c in (lo, lo + dense.shape[a]))
                factor[:, c0 - lo : c1 - lo] = columns[:, c0:c1]
                # tensordot(tensor, factor, ([0], [1])) without its per-call
                # reshaping: the same operands in the same layout, so the same bits
                tensor = np.dot(tensor.reshape(len(tensor), -1).T, factor.T).reshape(*tensor.shape[1:], len(factor))
            # scaled in place: the same product as a scaled copy, one field less
            tensor *= 2.0 ** (d * j / 2.0)
            out += tensor
        return out

    def _density_from(self, rec: np.ndarray) -> np.ndarray:
        """Density from a reconstruction: squared unless the kind is classical."""
        if self.coefficients.kind == "classical":
            return rec
        return rec * rec

    def density(self, points) -> np.ndarray:
        return self._density_from(self.reconstruct(points))

    def density_on_axes(self, axes: list[np.ndarray]) -> np.ndarray:
        rec = self.reconstruct_on_axes(axes)
        # squared in place (_density_from would hold a second field)
        if self.coefficients.kind != "classical":
            rec *= rec
        return rec


def _pyramid_coefficients(points, config: EstimatorConfig) -> CoefficientSet:
    """``estimate_coefficients`` through Mallat's pyramid: one father scatter
    at level J+1, then J+1-j0 analysis steps, each keeping its details and
    passing its trend down; a trend-only config runs no step.  Agrees with
    the direct scatter to rounding (the two-scale relation at snapped
    coordinates)."""
    # a k warning names the caller of fit_model, two frames above this one
    trend = estimate_coefficients(points, dataclasses.replace(config, j0=config.J + 1), _stacklevel=4)
    details = {}
    for _ in range(config.J + 1 - config.j0):
        coarse = dilation_coefficients(trend)
        details.update((key, block) for key, block in coarse.blocks.items() if key[1])
        father = {key: block for key, block in coarse.blocks.items() if not key[1]}
        trend = dataclasses.replace(coarse, blocks=father, J=coarse.j0 - 1)
    blocks = dict(sorted({**trend.blocks, **details}.items()))
    return dataclasses.replace(trend, blocks=blocks, j0=config.j0, J=config.J)


def fit_model(points, config: EstimatorConfig) -> DensityModel:
    """Full pipeline: estimate (through the pyramid), then threshold (if
    configured), then normalize."""
    coeffs = _pyramid_coefficients(points, config)
    if config.threshold_constant is not None:
        coeffs = soft_threshold(coeffs, config.threshold_constant)
    if config.normalize:
        coeffs = normalize(coeffs)
    return DensityModel(coeffs)


def _cells_past_budget(shapes) -> str | None:
    """Name the first block at which the running count of cells of
    ``shapes``, ((j, q), block shape) pairs in file order, passes
    ``_MAX_FILE_CELLS``; None when they all fit."""
    cells = 0
    for (j, q), shape in shapes:
        cells += math.prod(shape)
        if cells > _MAX_FILE_CELLS:
            return f"block (j={j}, q={q}) spans {shape} translates, past {_MAX_FILE_CELLS} cells"
    return None


def write_coefficients(path, coeffs: CoefficientSet, *, domain=None, affine=None, provenance=None) -> None:
    """Write a coefficient file; values carry 17 significant digits so that
    reading the file back reproduces the in-memory floats exactly.

    A set that ``read_coefficients`` would refuse is refused before the file
    is opened: BudgetError when its blocks span more than
    ``_MAX_FILE_CELLS`` cells in all, DegenerateModelError when a value is
    not finite."""
    past = _cells_past_budget((key, dense.shape) for key, (_, dense) in coeffs.blocks.items())
    if past is not None:
        raise BudgetError(f"{path}: {past}, so the file could not be read back")
    for (j, q), (_, dense) in coeffs.blocks.items():
        if not np.isfinite(dense).all():
            raise DegenerateModelError(f"{path}: block (j={j}, q={q}) holds a non-finite coefficient")
    head = {
        "schema_version": SCHEMA_VERSION,
        "kind": coeffs.kind,
        "d": coeffs.d,
        "n": coeffs.n,
        "k": coeffs.k,
        "j0": coeffs.j0,
        "J": coeffs.J,
        "wavelet_order": coeffs.wavelet_order,
        "dyadic_resolution": DEFAULT_RESOLUTION,
        "normalized": coeffs.normalized,
        # a fixed tag, so that earlier versions still read the file
        "representation": "trend-plus-details",
    }
    if domain is not None:
        head["domain"] = np.asarray(domain, dtype=float).tolist()
    if affine is not None:
        head["affine"] = {
            "scale": affine.scale.tolist(),
            "offset": affine.offset.tolist(),
        }
    if provenance is not None:
        head["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(head, indent=2)[:-2] + ',\n  "entries": [')
        # one line per nonzero, block by block in C (translate) order
        for i, ((j, q), (zmin, dense)) in enumerate(coeffs.blocks.items()):
            line = '    {"j": %d, "z": [%s], "q": %d, "value": %%.17e}' % (j, ", ".join(["%d"] * dense.ndim), q)
            zs = (np.argwhere(dense) + zmin).T.tolist()
            fields = chain.from_iterable(zip(*zs, dense[dense != 0].tolist()))
            handle.write((",\n" if i else "\n") + ",\n".join([line] * len(zs[0])) % tuple(fields))
        handle.write("\n  ]\n}\n" if coeffs.blocks else "]\n}\n")


def _file_blocks(groups, path, *, d, j0, J, wavelet_order, kind, **_):
    """Sorted, trimmed blocks of a file's entries, given grouped by (j, q)
    into translate and value lists.  Raises DataError where the header is
    invalid (kind; d outside 1..32, as a dense block has one array axis per
    dimension; order; J below j0 - 1; a level j whose 2**j or 2**(d j / 2)
    is not a finite nonzero float64), an entry contradicts it (orientation,
    level, translate length), a value is not finite, an entry repeats, or
    the blocks' bounding boxes span more than ``_MAX_FILE_CELLS`` cells in
    all."""
    if kind not in ("shape-preserving", "classical"):
        raise DataError(f"{path}: unknown kind {kind!r}")
    if not 1 <= d <= 32:
        raise DataError(f"{path}: dimension d={d} outside 1..32")
    if not 1 <= wavelet_order <= MAX_ORDER:
        raise DataError(f"{path}: wavelet order {wavelet_order} outside 1..{MAX_ORDER}")
    if J < j0 - 1:
        raise DataError(f"{path}: J={J} lies below j0 - 1 = {j0 - 1}")
    for level in (j0, max(J, j0)):
        # evaluation scales by 2**j and 2**(d j / 2); Python's float power
        # raises OverflowError past the float64 range
        try:
            scaled = 2.0 ** level > 0.0 and 2.0 ** (d * level / 2) > 0.0
        except OverflowError:
            scaled = False
        if not scaled:
            raise DataError(f"{path}: level {level} puts 2**j or 2**(d*j/2) outside the finite nonzero float64 range")
    parsed = []
    for (j, q), (zs, vals) in groups.items():
        short = next((i for i, z in enumerate(zs) if len(z) != d), 0)
        if not 0 <= q < (1 << d) or len(zs[short]) != d:
            raise DataError(
                f"{path}: entry j={j} z={zs[short]} q={q} needs d={d} translate coordinates and 0 <= q < {1 << d}"
            )
        if j not in (range(j0, J + 1) if q else (j0,)):
            raise DataError(f"{path}: entry j={j} z={zs[0]} q={q} lies outside the levels j0={j0}..J={J}")
        values = np.array(vals)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(f"{path}: entry j={j} z={zs[bad[0]]} q={q} has non-finite value {values[bad[0]]}")
        try:
            z = np.array(zs, dtype=np.int64)
        except OverflowError:
            raise DataError(f"{path}: block (j={j}, q={q}) has a translate outside the 64-bit range") from None
        lo = z.min(axis=0)
        # in Python integers, which no translate range overflows
        shape = tuple(int(b) - int(a) + 1 for a, b in zip(lo, z.max(axis=0)))
        parsed.append(((j, q), zs, z, lo, shape, values))
    past = _cells_past_budget((key, shape) for key, _, _, _, shape, _ in parsed)
    if past is not None:
        raise DataError(f"{path}: {past}")
    blocks = {}
    for (j, q), zs, z, lo, shape, values in parsed:
        flat = np.ravel_multi_index(tuple((z - lo).T), shape)
        first = np.unique(flat, return_index=True)[1]
        if first.size < flat.size:
            again = zs[np.setdiff1d(np.arange(flat.size), first)[0]]
            raise DataError(f"{path}: entry j={j} z={again} q={q} appears more than once")
        dense = np.zeros(shape)
        dense.reshape(-1)[flat] = values
        blocks[(j, q)] = (lo, dense)
    return _trimmed(blocks)


def read_coefficients(path) -> tuple[CoefficientSet, dict]:
    """Read a coefficient file; returns the set and any extra metadata
    (domain, affine, provenance)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema_version {doc.get('schema_version')}")
    try:
        # (j, q) -> (translates, values), in file order
        groups: dict[tuple[int, int], tuple[list, list]] = {}
        for item in doc["entries"]:
            zs, vals = groups.setdefault((int(item["j"]), int(item["q"])), ([], []))
            zs.append([int(c) for c in item["z"]])
            vals.append(float(item["value"]))
        meta = dict(
            d=int(doc["d"]),
            n=int(doc["n"]),
            k=int(doc["k"]),
            j0=int(doc["j0"]),
            J=int(doc["J"]),
            wavelet_order=int(doc["wavelet_order"]),
            normalized=bool(doc["normalized"]),
            kind=str(doc.get("kind", "shape-preserving")),
        )
        representation = str(doc["representation"])
        resolution = int(doc.get("dyadic_resolution", DEFAULT_RESOLUTION))
        # the extras that eval reads: the grid box and the data-coordinate map
        arrays = [("domain", doc["domain"], (meta["d"], 2))] if "domain" in doc else []
        if "affine" in doc:
            arrays += [(f"affine {part}", doc["affine"][part], (meta["d"],)) for part in ("scale", "offset")]
        for name, value, shape in arrays:
            arr = np.asarray(value, dtype=float)
            if arr.shape != shape or not np.all(np.isfinite(arr)):
                raise DataError(f"{path}: {name} needs shape {shape} and finite values")
            if name == "affine scale" and not np.all(arr > 0.0):
                # rescale_to_domain writes 1 / span; a sign or a zero would flip or void f
                raise DataError(f"{path}: affine scale {arr.tolist()} needs every component > 0")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed coefficient document ({exc})") from exc
    if resolution != DEFAULT_RESOLUTION:
        raise DataError(f"{path}: dyadic resolution {resolution} is not the tables' {DEFAULT_RESOLUTION}")
    if representation == "single-trend":
        # earlier versions tagged a trend-only set at level J+1 this way
        meta["j0"] = meta["J"] + 1
    elif representation != "trend-plus-details":
        raise DataError(f"{path}: unknown representation {representation!r}")
    extras = {name: doc[name] for name in ("domain", "affine", "provenance") if name in doc}
    return CoefficientSet(blocks=_file_blocks(groups, path, **meta), **meta), extras


def model_from_file(path) -> tuple[DensityModel, dict]:
    coeffs, extras = read_coefficients(path)
    return DensityModel(coeffs), extras
