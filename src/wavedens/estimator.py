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
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import (
    DataError,
    DegenerateModelError,
    EstimationError,
    RepresentationError,
)
from .neighbors import as_points, knn_stats, validate_k
from .wavelets import MAX_ORDER, BasisIndex, WaveletFamily, cached_family, _table_at

TREND_DETAILS = "trend-plus-details"
SINGLE_TREND = "single-trend"

SCHEMA_VERSION = 1

# bytes of per-row intermediates that point reconstruction holds at once
_EVAL_BYTES = 64 << 20


@dataclass(frozen=True, eq=False)
class EstimatorConfig:
    """Configuration of one fit.

    J = j0 - 1 requests the trend-only estimator.  ``domain`` is an
    axis-aligned box as a (d, 2) array of (low, high) pairs; None means the
    unit cube.  ``threshold_constant`` switches on soft thresholding of the
    detail coefficients before normalization.
    """

    wavelet_order: int = 6
    j0: int = 0
    J: int = 0
    k: int = 1
    normalize: bool = True
    threshold_constant: float | None = None
    domain: np.ndarray | None = None
    dyadic_resolution: int = 10

    def __post_init__(self):
        if self.J < self.j0 - 1:
            raise ValueError(f"J must be >= j0 - 1, got J={self.J}, j0={self.j0}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.threshold_constant is not None and self.threshold_constant < 0:
            raise ValueError("threshold_constant must be >= 0")


@dataclass(frozen=True)
class CoefficientSet:
    """Sparse map from basis indices to estimated coefficient values.

    ``representation`` is either trend-plus-details (father entries at j0,
    detail entries at j0..J) or single-trend (father entries at J+1 only).
    """

    entries: dict[BasisIndex, float]
    d: int
    n: int
    k: int
    j0: int
    J: int
    wavelet_order: int
    normalized: bool
    representation: str
    kind: str = "shape-preserving"
    dyadic_resolution: int = 10


def consistency_factor(k: int) -> float:
    """Bias-removing constant Gamma(k) / Gamma(k + 1/2), via log-gamma."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(math.exp(gammaln(k) - gammaln(k + 0.5)))


def domain_box(config: EstimatorConfig, d: int) -> np.ndarray:
    if config.domain is None:
        return np.column_stack([np.zeros(d), np.ones(d)])
    box = np.asarray(config.domain, dtype=float)
    if box.shape != (d, 2):
        raise ValueError(f"domain must have shape ({d}, 2), got {box.shape}")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("domain box has a non-positive side")
    return box


def _sorted_entries(raw: dict[BasisIndex, float]) -> dict[BasisIndex, float]:
    return {
        key: raw[key]
        for key in sorted(raw, key=lambda b: (b.level, b.orientation, b.translate))
    }


def _blocks_to_entries(blocks) -> dict[BasisIndex, float]:
    raw: dict[BasisIndex, float] = {}
    for (j, q), (zmin, dense) in blocks.items():
        flat = dense.ravel()
        nz = np.flatnonzero(flat)
        if nz.size == 0:
            continue
        coords = np.unravel_index(nz, dense.shape)
        for pos, val in zip(zip(*coords), flat[nz]):
            z = tuple(int(zmin[a] + pos[a]) for a in range(len(pos)))
            raw[BasisIndex(j, z, q)] = float(val)
    return _sorted_entries(raw)


def _entries_to_blocks(cs: CoefficientSet):
    """Group entries into dense per-(level, orientation) arrays."""
    grouped: dict[tuple[int, int], list[tuple[tuple[int, ...], float]]] = {}
    for idx, val in cs.entries.items():
        grouped.setdefault((idx.level, idx.orientation), []).append((idx.translate, val))
    blocks = {}
    for key, items in grouped.items():
        zs = np.array([z for z, _ in items], dtype=np.int64)
        zmin = zs.min(axis=0)
        shape = tuple(zs.max(axis=0) - zmin + 1)
        dense = np.zeros(shape)
        for (z, val) in items:
            dense[tuple(np.asarray(z) - zmin)] = val
        blocks[key] = (zmin, dense)
    return blocks


def snap_to_dyadic(points: np.ndarray, resolution: int) -> np.ndarray:
    """Integer coordinates floor(x * 2**resolution) used for basis lookups.

    Flooring never crosses a dyadic cell boundary, so Haar basis values are
    preserved exactly; for smoother families the perturbation is below
    2**-resolution per axis.
    """
    return np.floor(np.ldexp(points, resolution)).astype(np.int64)


def _band_table_values(family: WaveletFamily, snapped: np.ndarray, j: int):
    """Exact father/mother table values on the translate band at level j.

    Returns (z_base, father_vals, mother_vals) where z_base is the smallest
    banded translate per point and axis, and the value arrays have shape
    (n, d, 2p-1) over per-axis offsets.
    """
    r = family.dyadic_resolution
    width = family.support_length
    t_idx = snapped << j
    z_base = (t_idx >> r) - (width - 1)
    offs = np.arange(width, dtype=np.int64)
    table_idx = t_idx[:, :, None] - ((z_base[:, :, None] + offs) << r)
    return z_base, family.father_table[table_idx], family.mother_table[table_idx]


def _accumulate_level(family, z_base, fvals, mvals, qs, weights, j, d):
    """Scatter-add weighted tensor basis values into dense per-q blocks."""
    width = family.support_length
    combos = np.indices((width,) * d).reshape(d, -1)
    n_combos = combos.shape[1]
    axis_take = np.arange(d)[:, None]
    zmin = z_base.min(axis=0)
    shape = tuple(z_base.max(axis=0) - zmin + width)
    z_adj = z_base[:, :, None] + combos[None, :, :] - zmin[None, :, None]
    lin = np.ravel_multi_index(tuple(z_adj.transpose(1, 0, 2)), shape)
    scale = 2.0 ** (d * j / 2.0)
    out = {}
    for q in qs:
        vals = np.empty_like(fvals)
        for a in range(d):
            vals[:, a, :] = mvals[:, a, :] if (q >> a) & 1 else fvals[:, a, :]
        prod = vals[:, axis_take, combos].reshape(-1, d, n_combos).prod(axis=1)
        contrib = prod * (weights * scale)[:, None]
        dense = np.zeros(int(np.prod(shape)))
        np.add.at(dense, lin.ravel(), contrib.ravel())
        out[(j, q)] = (zmin.copy(), dense.reshape(shape))
    return out


def _coefficient_sums(points, weights, config: EstimatorConfig) -> dict[BasisIndex, float]:
    family = cached_family(config.wavelet_order, config.dyadic_resolution)
    n, d = points.shape
    snapped = snap_to_dyadic(points, family.dyadic_resolution)
    blocks = {}
    z_base, fvals, mvals = _band_table_values(family, snapped, config.j0)
    blocks.update(
        _accumulate_level(family, z_base, fvals, mvals, [0], weights, config.j0, d)
    )
    detail_qs = list(range(1, 1 << d))
    for j in range(config.j0, config.J + 1):
        if j == config.j0:
            zb, fv, mv = z_base, fvals, mvals
        else:
            zb, fv, mv = _band_table_values(family, snapped, j)
        blocks.update(_accumulate_level(family, zb, fv, mv, detail_qs, weights, j, d))
    return _blocks_to_entries(blocks)


def estimate_coefficients(points, config: EstimatorConfig) -> CoefficientSet:
    """Estimate raw (unnormalized, unthresholded) coefficients of sqrt(f).

    Neighbour statistics are computed once and shared across all basis
    indices; duplicated points contribute zero-volume terms.  Entries whose
    accumulated sum is exactly zero are absent from the map.
    """
    pts = as_points(points)
    n, d = pts.shape
    if n < 2:
        raise EstimationError(f"need at least 2 points to estimate, got {n}")
    if config.k >= n:
        raise EstimationError(f"k={config.k} requires at least k+1={config.k + 1} points")
    box = domain_box(config, d)
    if np.any(pts < box[:, 0]) or np.any(pts > box[:, 1]):
        raise EstimationError(
            "points fall outside the configured domain; "
            "rescale them first with rescale_to_domain"
        )
    verdict = validate_k(n, config.k)
    if not verdict.ok:
        warnings.warn(verdict.message, stacklevel=2)
    stats = knn_stats(pts, config.k)
    weights = consistency_factor(config.k) / math.sqrt(n) * np.sqrt(stats.volumes)
    entries = _coefficient_sums(pts, weights, config)
    return CoefficientSet(
        entries=entries,
        d=d,
        n=n,
        k=config.k,
        j0=config.j0,
        J=config.J,
        wavelet_order=config.wavelet_order,
        normalized=False,
        representation=TREND_DETAILS,
        kind="shape-preserving",
        dyadic_resolution=config.dyadic_resolution,
    )


def normalization_mass(coeffs: CoefficientSet) -> float:
    """Total squared coefficient mass; equals the integral of the squared
    reconstruction because the basis is orthonormal."""
    vals = np.fromiter(coeffs.entries.values(), dtype=float, count=len(coeffs.entries))
    return float(vals @ vals) if vals.size else 0.0


def normalize(coeffs: CoefficientSet) -> CoefficientSet:
    """Scale all coefficients so the squared mass is one."""
    mass = normalization_mass(coeffs)
    if mass <= 0.0:
        raise DegenerateModelError("cannot normalize a zero-mass coefficient set")
    if coeffs.normalized and abs(mass - 1.0) <= 1e-12:
        return coeffs
    scale = 1.0 / math.sqrt(mass)
    entries = {key: val * scale for key, val in coeffs.entries.items()}
    return dataclasses.replace(coeffs, entries=entries, normalized=True)


def soft_threshold(coeffs: CoefficientSet, threshold_constant: float, n: int) -> CoefficientSet:
    """Soft-threshold detail entries with level-dependent threshold
    t_j = C sqrt(j+1) / sqrt(n); trend entries are untouched and exact zeros
    are dropped from the map."""
    if threshold_constant < 0:
        raise ValueError("threshold constant must be >= 0")
    if coeffs.representation != TREND_DETAILS:
        raise RepresentationError(
            "soft thresholding applies to the trend-plus-details representation; "
            "convert with dilation_coefficients first"
        )
    if threshold_constant == 0.0:
        return coeffs
    entries: dict[BasisIndex, float] = {}
    for key, val in coeffs.entries.items():
        if key.orientation == 0:
            entries[key] = val
            continue
        t_j = threshold_constant * math.sqrt(key.level + 1) / math.sqrt(n)
        shrunk = math.copysign(max(abs(val) - t_j, 0.0), val)
        if shrunk != 0.0:
            entries[key] = shrunk
    return dataclasses.replace(coeffs, entries=entries, normalized=False)


def truncate_details(coeffs: CoefficientSet, new_J: int) -> CoefficientSet:
    """Drop detail levels above new_J; equals a direct fit at the lower J."""
    if coeffs.representation != TREND_DETAILS:
        raise RepresentationError("can only truncate a trend-plus-details set")
    if new_J > coeffs.J or new_J < coeffs.j0 - 1:
        raise ValueError(f"new_J must lie in [{coeffs.j0 - 1}, {coeffs.J}]")
    if new_J == coeffs.J:
        return coeffs
    entries = {
        key: val
        for key, val in coeffs.entries.items()
        if key.orientation == 0 or key.level <= new_J
    }
    return dataclasses.replace(coeffs, entries=entries, J=new_J, normalized=False)


def _tensor_filter(family: WaveletFamily, d: int, q: int) -> np.ndarray:
    taps_h = family.lowpass
    taps_g = family.highpass
    filt = np.array([1.0])
    for a in range(d):
        axis = taps_g if (q >> a) & 1 else taps_h
        filt = np.multiply.outer(filt, axis)
    return filt.reshape((taps_h.size,) * d) if d > 0 else filt


def to_single_trend(coeffs: CoefficientSet, family: WaveletFamily) -> CoefficientSet:
    """Synthesize the equivalent single-trend representation at level J+1.

    Repeatedly applies the synthesis relation trend[j+1, m] =
    sum_q sum_z c^q[m - 2z] coef^q[j, z]; the reconstruction is unchanged.
    """
    if coeffs.representation == SINGLE_TREND:
        return coeffs
    d = coeffs.d
    taps = 2 * family.order
    blocks = _entries_to_blocks(coeffs)
    trend = blocks.get((coeffs.j0, 0))
    for j in range(coeffs.j0, coeffs.J + 1):
        level_blocks = [(0, trend)] if trend is not None else []
        for q in range(1, 1 << d):
            if (j, q) in blocks:
                level_blocks.append((q, blocks[(j, q)]))
        if not level_blocks:
            trend = None
            continue
        fmin = np.min([2 * zmin for _, (zmin, _) in level_blocks], axis=0)
        fmax = np.max(
            [2 * (zmin + np.array(dense.shape) - 1) + taps - 1 for _, (zmin, dense) in level_blocks],
            axis=0,
        )
        shape = tuple(fmax - fmin + 1)
        fine = np.zeros(int(np.prod(shape)))
        combos = np.indices((taps,) * d).reshape(d, -1)
        for q, (zmin, dense) in level_blocks:
            filt = _tensor_filter(family, d, q).ravel()
            cell_idx = np.indices(dense.shape).reshape(d, -1)
            z_abs = cell_idx + zmin[:, None]
            target = 2 * z_abs[:, :, None] + combos[:, None, :] - fmin[:, None, None]
            lin = np.ravel_multi_index(tuple(target), shape)
            contrib = dense.ravel()[:, None] * filt[None, :]
            np.add.at(fine, lin.ravel(), contrib.ravel())
        trend = (fmin, fine.reshape(shape))
    if trend is None:
        entries: dict[BasisIndex, float] = {}
    else:
        entries = _blocks_to_entries({(coeffs.J + 1, 0): trend})
    return dataclasses.replace(coeffs, entries=entries, representation=SINGLE_TREND)


def dilation_coefficients(fine: CoefficientSet, family: WaveletFamily) -> CoefficientSet:
    """Filter a single-trend set at level j+1 down to trend and details at j.

    This is the analysis half of the filter bank; it reproduces direct
    estimation at the coarse level entry by entry (to float precision).
    """
    if fine.representation != SINGLE_TREND:
        raise RepresentationError("dilation_coefficients expects a single-trend set")
    d = fine.d
    level_fine = fine.J + 1
    coarse_level = level_fine - 1
    taps = 2 * family.order
    blocks = _entries_to_blocks(fine)
    out_blocks = {}
    if (level_fine, 0) in blocks:
        zmin_f, dense_f = blocks[(level_fine, 0)]
        zmax_f = zmin_f + np.array(dense_f.shape) - 1
        cmin = -((-(zmin_f - (taps - 1))) // 2)
        cmax = zmax_f // 2
        cshape = tuple(np.maximum(cmax - cmin + 1, 0))
        if all(s > 0 for s in cshape):
            combos = np.indices((taps,) * d).reshape(d, -1)
            cell_idx = np.indices(cshape).reshape(d, -1)
            z_abs = cell_idx + cmin[:, None]
            src = 2 * z_abs[:, :, None] + combos[:, None, :] - zmin_f[:, None, None]
            # zero padding of taps per side covers every out-of-block source
            padded = np.pad(dense_f, taps)
            gathered = padded.ravel()[np.ravel_multi_index(tuple(src + taps), padded.shape)]
            for q in range(1 << d):
                filt = _tensor_filter(family, d, q).ravel()
                coarse = gathered @ filt
                out_blocks[(coarse_level, q)] = (cmin.copy(), coarse.reshape(cshape))
    entries = _blocks_to_entries(out_blocks)
    return dataclasses.replace(
        fine,
        entries=entries,
        j0=coarse_level,
        J=coarse_level,
        representation=TREND_DETAILS,
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


def rescale_to_domain(points, target=None, padding: float = 0.0):
    """Affinely map the data's (padded) bounding box onto the target box.

    Returns the transformed points and the affine record needed to undo the
    map or to back-transform densities with the Jacobian correction.
    """
    pts = as_points(points)
    n, d = pts.shape
    if n < 1:
        raise ValueError("need at least one point")
    if target is None:
        target = np.column_stack([np.zeros(d), np.ones(d)])
    target = np.asarray(target, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    if np.any(span <= 0.0):
        bad = int(np.argmax(span <= 0.0))
        raise DataError(f"axis {bad} has zero range; cannot rescale")
    lo = lo - padding * span
    hi = hi + padding * span
    span = hi - lo
    scale = (target[:, 1] - target[:, 0]) / span
    offset = target[:, 0] - lo * scale
    mapping = AffineMap(scale=scale, offset=offset)
    return mapping.forward(pts), mapping


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


class DensityModel:
    """A wavelet family plus coefficients, evaluable as a density.

    For the shape-preserving kind the density is the squared reconstruction
    (nonnegative by construction); for the classical kind it is the linear
    reconstruction itself and may be negative.
    """

    def __init__(self, family: WaveletFamily, coefficients: CoefficientSet):
        if family.order != coefficients.wavelet_order:
            raise ValueError("family order does not match the coefficient set")
        self.family = family
        self.coefficients = coefficients
        self._blocks = _entries_to_blocks(coefficients)

    @property
    def d(self) -> int:
        return self.coefficients.d

    def reconstruct(self, points) -> np.ndarray:
        """Linear coefficient reconstruction at the given points, in chunks of
        rows whose factor matrices and first contraction fit in ``_EVAL_BYTES``."""
        pts = as_points(points)
        if pts.shape[1] != self.d:
            raise ValueError(f"expected dimension {self.d}, got {pts.shape[1]}")
        widest = max(
            (dense.size // len(dense) + sum(dense.shape) for _, dense in self._blocks.values()),
            default=1,
        )
        rows = max(1, _EVAL_BYTES // (8 * widest))
        out = np.zeros(pts.shape[0])
        for (j, q), (zmin, dense) in self._blocks.items():
            for start in range(0, pts.shape[0], rows):
                chunk = pts[start : start + rows]
                factors = _axis_factors(self.family, j, q, zmin, dense.shape, chunk.T)
                acc = factors[0] @ dense.reshape(len(dense), -1)
                for a in range(1, self.d):
                    acc = np.einsum("nsr,ns->nr", acc.reshape(len(chunk), dense.shape[a], -1), factors[a])
                out[start : start + rows] += 2.0 ** (self.d * j / 2.0) * acc[:, 0]
        return out

    def reconstruct_on_axes(self, axes: list[np.ndarray]) -> np.ndarray:
        """Reconstruction on a tensor grid given per-axis coordinate arrays.

        Uses the separability of the tensor basis: one thin factor matrix
        per axis and per stored block, contracted against the dense
        coefficient array.  Output shape is (len(axes[0]), ..., len(axes[d-1])).
        """
        d = self.d
        if len(axes) != d:
            raise ValueError(f"expected {d} axis arrays, got {len(axes)}")
        out = np.zeros(tuple(len(ax) for ax in axes))
        for (j, q), (zmin, dense) in self._blocks.items():
            tensor = dense
            for factor in _axis_factors(self.family, j, q, zmin, dense.shape, axes):
                tensor = np.tensordot(tensor, factor, axes=([0], [1]))
            out += 2.0 ** (d * j / 2.0) * tensor
        return out

    def _density_from(self, rec: np.ndarray) -> np.ndarray:
        """Density from a reconstruction: squared unless the kind is classical."""
        if self.coefficients.kind == "classical":
            return rec
        return rec * rec

    def density(self, points) -> np.ndarray:
        return self._density_from(self.reconstruct(points))

    def density_on_axes(self, axes: list[np.ndarray]) -> np.ndarray:
        return self._density_from(self.reconstruct_on_axes(axes))


def reconstruct_g(model: DensityModel, x) -> float:
    """Square-root reconstruction g_hat at one point."""
    return float(model.reconstruct(np.atleast_2d(np.asarray(x, dtype=float)))[0])


def density_at(model: DensityModel, x) -> float:
    """Density estimate at one point; never negative for the
    shape-preserving kind."""
    return float(model.density(np.atleast_2d(np.asarray(x, dtype=float)))[0])


def fit_model(points, config: EstimatorConfig) -> DensityModel:
    """Full pipeline: estimate, then threshold (if configured), then normalize."""
    coeffs = estimate_coefficients(points, config)
    if config.threshold_constant is not None:
        coeffs = soft_threshold(coeffs, config.threshold_constant, coeffs.n)
    if config.normalize:
        coeffs = normalize(coeffs)
    family = cached_family(config.wavelet_order, config.dyadic_resolution)
    return DensityModel(family, coeffs)


def write_coefficients(path, coeffs: CoefficientSet, *, domain=None, affine=None, provenance=None) -> None:
    """Write a coefficient file; values carry 17 significant digits so that
    reading the file back reproduces the in-memory floats exactly."""
    head = {
        "schema_version": SCHEMA_VERSION,
        "kind": coeffs.kind,
        "d": coeffs.d,
        "n": coeffs.n,
        "k": coeffs.k,
        "j0": coeffs.j0,
        "J": coeffs.J,
        "wavelet_order": coeffs.wavelet_order,
        "dyadic_resolution": coeffs.dyadic_resolution,
        "normalized": coeffs.normalized,
        "representation": coeffs.representation,
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
    text = json.dumps(head, indent=2)
    lines = []
    for key, val in coeffs.entries.items():
        z = ", ".join(str(int(c)) for c in key.translate)
        lines.append(
            f'    {{"j": {key.level}, "z": [{z}], "q": {key.orientation}, '
            f'"value": {val:.17e}}}'
        )
    body = ",\n".join(lines)
    entries_text = f'  "entries": [\n{body}\n  ]' if lines else '  "entries": []'
    document = text[:-2] + ",\n" + entries_text + "\n}\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)


def _check_coefficients(cs: CoefficientSet, path) -> None:
    """Raise DataError where a coefficient set read from a file contradicts
    its own header: order, representation, translate length, orientation,
    level, or a non-finite value."""
    if not 1 <= cs.wavelet_order <= MAX_ORDER:
        raise DataError(f"{path}: wavelet order {cs.wavelet_order} outside 1..{MAX_ORDER}")
    if cs.representation not in (TREND_DETAILS, SINGLE_TREND):
        raise DataError(f"{path}: unknown representation {cs.representation!r}")
    # single-trend sets hold father entries at J+1 and no details
    single = cs.representation == SINGLE_TREND
    father_level = cs.J + 1 if single else cs.j0
    detail_levels = range(0) if single else range(cs.j0, cs.J + 1)
    for key, val in cs.entries.items():
        if len(key.translate) != cs.d or not 0 <= key.orientation < (1 << cs.d):
            raise DataError(
                f"{path}: entry {key} needs d={cs.d} translate coordinates and 0 <= q < {1 << cs.d}"
            )
        if key.level not in (detail_levels if key.orientation else (father_level,)):
            raise DataError(f"{path}: entry {key} lies outside the levels of a {cs.representation} set")
        if not math.isfinite(val):
            raise DataError(f"{path}: entry {key} has non-finite value {val}")


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
        entries: dict[BasisIndex, float] = {}
        for item in doc["entries"]:
            key = BasisIndex(int(item["j"]), tuple(int(c) for c in item["z"]), int(item["q"]))
            entries[key] = float(item["value"])
        coeffs = CoefficientSet(
            entries=_sorted_entries(entries),
            d=int(doc["d"]),
            n=int(doc["n"]),
            k=int(doc["k"]),
            j0=int(doc["j0"]),
            J=int(doc["J"]),
            wavelet_order=int(doc["wavelet_order"]),
            normalized=bool(doc["normalized"]),
            representation=str(doc["representation"]),
            kind=str(doc.get("kind", "shape-preserving")),
            dyadic_resolution=int(doc.get("dyadic_resolution", 10)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed coefficient document ({exc})") from exc
    _check_coefficients(coeffs, path)
    extras = {name: doc[name] for name in ("domain", "affine", "provenance") if name in doc}
    return coeffs, extras


def model_from_file(path) -> tuple[DensityModel, dict]:
    coeffs, extras = read_coefficients(path)
    family = cached_family(coeffs.wavelet_order, coeffs.dyadic_resolution)
    return DensityModel(family, coeffs), extras
