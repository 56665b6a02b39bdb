"""Ground-truth mixtures, the seeded Monte-Carlo benchmark, and statistical
oracle checks for nearest-neighbour ball volumes.

The registry ships three bivariate Gaussian mixtures truncated to the unit
square (two peaks of very different scale and orientation, two similar
peaks, and a four-peak comb of geometrically decreasing spread) plus a flat
uniform fixture.  Benchmarks are driven by a counter-based Philox generator
with one substream per (density, sample size, replication), so results do
not depend on worker count or sweep composition.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import numbers
import os
import platform
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy
from scipy.special import gammaln

from . import __version__
from .classical import classical_coefficients
from .errors import ConfigurationError, DataError, EstimationError, KConsistencyWarning
from .estimator import (
    DensityModel,
    EstimatorConfig,
    estimate_coefficient_sets,
    normalize,
    truncate_details,
)
from .metrics import Field, GridSpec, grid_eval, ise, mass, mise_aggregate, negative_mass
from .neighbors import knn_stats, unit_ball_volume
from .wavelets import DEFAULT_RESOLUTION, MAX_ORDER, cached_family

SHAPE_PRESERVING = "shape-preserving"
CLASSICAL = "classical"

_NORMALIZER_RESOLUTION = 1024
_MIN_ACCEPTANCE = 1e-3


@dataclass(frozen=True)
class MixtureSpec:
    """A Gaussian mixture truncated to a box and renormalized.

    ``normalizer`` is the mass of the untruncated mixture over the box,
    computed once by high-resolution grid quadrature.  An empty component
    list denotes the uniform density on the box.
    """

    name: str
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    domain: np.ndarray
    normalizer: float

    @property
    def d(self) -> int:
        return self.domain.shape[0]

    @property
    def is_uniform(self) -> bool:
        return self.weights.size == 0


def _mixture_on_grid(weights, means, covariances, grid: GridSpec) -> np.ndarray:
    """The untruncated mixture pdf at every cell center of ``grid``, in grid
    shape: per component, w * exp(-quad / 2) / norm with ``quad`` the
    squared norm of the Cholesky solve of the offset from the mean.

    A component with a diagonal Cholesky factor is solved once, on the
    stacked (d, R) axis offsets: the factor's zeros add exact zeros, so each
    solved coordinate depends on its own axis alone, and ``quad`` is formed
    by outer adds in the order of ``np.sum(..., axis=0)``.  Any other
    component is solved cell by cell.  The grid is walked in slabs of
    leading-axis rows of about 4 096 cells.  No solve gets a lone column
    by construction: at d >= 2 a slab row holds R^(d-1) >= 2 cells, and at
    d = 1 every component is diagonal.
    """
    r, d = grid.resolution, grid.d
    axes = np.stack(grid.axes())
    parts = []
    for w, mu, cov in zip(weights, means, covariances):
        chol = np.linalg.cholesky(cov)
        norm = (2.0 * math.pi) ** (d / 2.0) * np.prod(np.diag(chol))
        squares = None
        if np.array_equal(chol, np.diag(np.diag(chol))):
            sol = np.linalg.solve(chol, axes - mu[:, None])
            squares = sol * sol
        parts.append((w, mu, chol, norm, squares))
    values = np.zeros((r,) * d)
    run = r ** (d - 1)
    rows = max(1, 4096 // run)
    for start in range(0, r, rows):
        stop = min(start + rows, r)
        out, centers = values[start:stop], None
        for w, mu, chol, norm, squares in parts:
            if squares is None:
                if centers is None:
                    centers = grid.cell_centers(start * run, stop * run)
                sol = np.linalg.solve(chol, (centers - mu).T)
                quad = np.sum(sol * sol, axis=0).reshape(out.shape)
            else:
                quad = squares[0, start:stop]
                for a in range(1, d):
                    quad = quad[..., None] + squares[a]
            out += w * np.exp(-0.5 * quad) / norm
    return values


def _box_volume(domain: np.ndarray) -> float:
    return float(np.prod(domain[:, 1] - domain[:, 0]))


def make_mixture(name, weights, means, covariances, domain) -> MixtureSpec:
    """Build a truncated-mixture spec, computing its normalizer by grid
    quadrature at resolution 1024 per axis.  Its GridSpec raises
    BudgetError, before the quadrature allocates, at d >= 3."""
    weights = np.asarray(weights, dtype=float)
    means = np.asarray(means, dtype=float)
    covariances = np.asarray(covariances, dtype=float)
    domain = np.asarray(domain, dtype=float)
    if weights.size:
        if not np.all(weights > 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigurationError("mixture weights must be positive and sum to 1")
        for cov in covariances:
            if not np.allclose(cov, cov.T) or np.linalg.eigvalsh(cov).min() <= 0:
                raise ConfigurationError("covariances must be symmetric positive definite")
        grid = GridSpec.from_box(domain, _NORMALIZER_RESOLUTION)
        normalizer = mass(Field(grid, _mixture_on_grid(weights, means, covariances, grid)))
    else:
        normalizer = 1.0
    if normalizer <= 0:
        raise ConfigurationError("mixture has no mass on the domain")
    return MixtureSpec(
        name=name,
        weights=weights,
        means=means,
        covariances=covariances,
        domain=domain,
        normalizer=normalizer,
    )


_UNIT_SQUARE = [[0.0, 1.0], [0.0, 1.0]]


@functools.lru_cache(maxsize=None)
def get_density(name: str) -> MixtureSpec:
    """Registry of benchmark densities on the unit square."""
    if name == "anisotropic-pair":
        # one broad tilted ridge plus one tight isotropic peak
        return make_mixture(
            name,
            weights=[0.5, 0.5],
            means=[[0.35, 0.40], [0.72, 0.72]],
            covariances=[
                [[0.040, 0.018], [0.018, 0.012]],
                [[0.0012, 0.0], [0.0, 0.0012]],
            ],
            domain=_UNIT_SQUARE,
        )
    if name == "similar-pair":
        # equal peaks near opposite corners; the truncation is deliberate
        return make_mixture(
            name,
            weights=[0.5, 0.5],
            means=[[0.22, 0.22], [0.78, 0.78]],
            covariances=[
                [[0.020, 0.0], [0.0, 0.020]],
                [[0.020, 0.0], [0.0, 0.020]],
            ],
            domain=_UNIT_SQUARE,
        )
    if name == "comb4":
        # four peaks of geometrically decreasing spread and weight
        s0 = 0.012
        return make_mixture(
            name,
            weights=[8 / 15, 4 / 15, 2 / 15, 1 / 15],
            means=[[0.22, 0.24], [0.48, 0.50], [0.66, 0.68], [0.80, 0.82]],
            covariances=[
                [[s0, 0.0], [0.0, s0]],
                [[s0 / 4, 0.0], [0.0, s0 / 4]],
                [[s0 / 16, 0.0], [0.0, s0 / 16]],
                [[s0 / 64, 0.0], [0.0, s0 / 64]],
            ],
            domain=_UNIT_SQUARE,
        )
    if name == "uniform":
        return make_mixture(
            name,
            weights=[],
            means=np.zeros((0, 2)),
            covariances=np.zeros((0, 2, 2)),
            domain=_UNIT_SQUARE,
        )
    raise ConfigurationError(f"unknown density {name!r}; known: {sorted(DENSITY_INDEX)}")


# stable substream keys; order must never change
DENSITY_INDEX = {"anisotropic-pair": 0, "similar-pair": 1, "comb4": 2, "uniform": 3}


def replication_rng(seed: int, density: str, n: int, replication: int) -> np.random.Generator:
    """Philox substream for one (density, n, replication) cell."""
    key = (DENSITY_INDEX[density], n, replication)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def sample_mixture(spec: MixtureSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from the truncated mixture by rejection against the box."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = spec.domain[:, 0]
    hi = spec.domain[:, 1]
    if spec.is_uniform:
        return lo + rng.random((n, spec.d)) * (hi - lo)
    chols = [np.linalg.cholesky(cov) for cov in spec.covariances]
    accepted = np.empty((0, spec.d))
    proposed = 0
    while accepted.shape[0] < n:
        batch = max(2 * (n - accepted.shape[0]), 256)
        comp = rng.choice(spec.weights.size, size=batch, p=spec.weights)
        z = rng.standard_normal((batch, spec.d))
        draws = np.empty((batch, spec.d))
        for c in range(spec.weights.size):
            sel = comp == c
            draws[sel] = spec.means[c] + z[sel] @ chols[c].T
        inside = np.all((draws >= lo) & (draws <= hi), axis=1)
        accepted = np.vstack([accepted, draws[inside]])
        proposed += batch
        if proposed >= 10_000 and accepted.shape[0] < _MIN_ACCEPTANCE * proposed:
            raise ConfigurationError(
                f"acceptance rate below {_MIN_ACCEPTANCE} for density {spec.name!r}: "
                "degenerate truncation"
            )
    return accepted[:n]


def true_density_field(spec: MixtureSpec, grid: GridSpec) -> Field:
    """Truncated-mixture density at the grid's cell centers: the mixture
    divided by its normalizer inside the box, zero outside it."""
    if spec.is_uniform:
        values = np.full((grid.resolution,) * grid.d, 1.0 / _box_volume(spec.domain))
    else:
        values = _mixture_on_grid(spec.weights, spec.means, spec.covariances, grid)
        values /= spec.normalizer
    # zero the cells outside the box, one axis at a time
    for a, (axis, (lo, hi)) in enumerate(zip(grid.axes(), spec.domain)):
        values[(slice(None),) * a + (~((axis >= lo) & (axis <= hi)),)] = 0.0
    return Field(grid, values)


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    densities: tuple[str, ...] = ("anisotropic-pair", "similar-pair", "comb4")
    sample_sizes: tuple[int, ...] = (128, 512, 2048)
    replications: int = 50
    J_values: tuple[int, ...] = (-1, 0, 1, 2, 3)
    k_values: tuple[int, ...] = (1, 2, 4, 8)
    wavelet_order: int = 6
    j0: int = 0
    grid_resolution: int = 128
    seed: int = 0
    estimators: tuple[str, ...] = (SHAPE_PRESERVING, CLASSICAL)

    def __post_init__(self):
        for name in ("densities", "sample_sizes", "J_values", "k_values", "estimators"):
            group = getattr(self, name)
            if not isinstance(group, (tuple, list)):
                raise ValueError(f"{name} must be a list, got {group!r}")
            if len(group) == 0:
                raise ValueError("all sweep axes must be non-empty")
        for name in (
            "sample_sizes", "J_values", "k_values", "replications", "wavelet_order", "j0", "grid_resolution", "seed"
        ):
            value = getattr(self, name)
            for item in value if isinstance(value, (tuple, list)) else [value]:
                # bool is an Integral, but true is no count
                if not isinstance(item, numbers.Integral) or isinstance(item, bool):
                    raise ValueError(f"{name} must hold integers, got {item!r}")
        # the smallest value the sweep can run; a trend-only fit has J = j0 - 1
        for name, low in (
            ("sample_sizes", 1), ("J_values", self.j0 - 1), ("k_values", 1), ("replications", 1),
            ("wavelet_order", 1), ("grid_resolution", 2), ("seed", 0),
        ):
            value = getattr(self, name)
            smallest = min(value) if isinstance(value, (tuple, list)) else value
            if smallest < low:
                raise ValueError(f"{name} must be >= {low}, got {smallest}")
        if self.wavelet_order > MAX_ORDER:
            raise ValueError(f"wavelet_order {self.wavelet_order} outside 1..{MAX_ORDER}")
        for name in self.densities:
            if name not in DENSITY_INDEX:
                raise ValueError(f"densities: unknown density {name!r}; known: {sorted(DENSITY_INDEX)}")
        for est in self.estimators:
            if est not in (SHAPE_PRESERVING, CLASSICAL):
                raise ValueError(f"unknown estimator {est!r}")

    @classmethod
    def from_json(cls, path) -> "BenchmarkConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: not valid JSON ({exc})") from exc
        doc.pop("schema_version", None)
        try:
            kwargs = {
                key: tuple(val) if isinstance(val, list) else val
                for key, val in doc.items()
            }
            return cls(**kwargs)
        except TypeError as exc:
            raise DataError(f"{path}: bad benchmark config ({exc})") from exc

    def to_dict(self) -> dict:
        out = {"schema_version": 1}
        for fld in dataclasses.fields(self):
            val = getattr(self, fld.name)
            out[fld.name] = list(val) if isinstance(val, tuple) else val
        return out


class BenchRow(NamedTuple):
    density: str
    n: int
    J: int
    k: int
    estimator: str
    mise: float | None
    mise_se: float | None
    mean_negative_mass: float | None
    wall_time: float
    error: str | None


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[BenchRow, ...]
    provenance: dict

    @property
    def failed(self) -> bool:
        return any(row.error is not None for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "provenance": self.provenance,
            "rows": [row._asdict() for row in self.rows],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def write_csv(self, path) -> None:
        """Flat table with shape-preserving and classical columns side by side."""
        cells: dict[tuple[str, int, int, int], dict[str, BenchRow]] = {}
        for row in self.rows:
            cells.setdefault((row.density, row.n, row.J, row.k), {})[row.estimator] = row
        lines = [
            "# wavedens benchmark report; seed="
            + str(self.provenance.get("config", {}).get("seed", "")),
            "density,n,J_plus_1,k,sp_mise,sp_se,classical_mise,classical_se",
        ]
        for (density, n, J, k), pair in cells.items():
            fields = [density, str(n), str(J + 1), str(k)]
            for est in (SHAPE_PRESERVING, CLASSICAL):
                row = pair.get(est)
                if row is None or row.mise is None:
                    fields.extend(["", ""])
                else:
                    fields.extend([repr(row.mise), repr(row.mise_se)])
            lines.append(",".join(fields))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def _row_field(raw, J, estimator, grid: GridSpec) -> Field:
    """The grid field of one row: ``raw`` truncated to J and made a density."""
    coeffs = truncate_details(raw, J)
    if estimator == SHAPE_PRESERVING:
        return grid_eval(DensityModel(normalize(coeffs)), grid)
    # rescaling is linear, so dividing the field by its mass equals
    # rescaling the coefficients
    field = grid_eval(DensityModel(coeffs), grid)
    total = mass(field)
    if total <= 0.0:
        raise EstimationError("non-positive grid mass")
    return Field(field.grid, field.values / total)


def _replicate_cell(spec, config, truth: Field, n, replication):
    """One Monte-Carlo replication: draw a sample, fit, evaluate every row.

    Returns {(J, k, estimator): (ise, negative_mass, seconds, error)}, where
    error is None or the message of the row's failure.
    """
    points = sample_mixture(spec, n, replication_rng(config.seed, spec.name, n, replication))
    # J >= j0, so that the father block comes from the per-level scatter of
    # every sweep and a trend-only row keeps its bits whatever J values share it
    base = EstimatorConfig(wavelet_order=config.wavelet_order, j0=config.j0, J=max(*config.J_values, config.j0), k=1)
    # (estimator, the ks whose rows the fit fills, raw set or failure message)
    fits = []
    if SHAPE_PRESERVING in config.estimators:
        # one neighbour query and one basis design for every k the sample
        # supports; each other k fails alone, with the message of its own fit
        valid = [k for k in config.k_values if k < n]
        for ks in ([valid] if valid else []) + [[k] for k in config.k_values if k >= n]:
            try:
                raws = estimate_coefficient_sets(points, base, ks)
                fits += [(SHAPE_PRESERVING, [k], raw) for k, raw in zip(ks, raws)]
            except EstimationError as exc:
                fits.append((SHAPE_PRESERVING, ks, str(exc)))
    if CLASSICAL in config.estimators:
        try:
            fits.append((CLASSICAL, config.k_values, classical_coefficients(points, base)))
        except EstimationError as exc:
            fits.append((CLASSICAL, config.k_values, str(exc)))
    out: dict[tuple[int, int, str], tuple] = {}
    for (estimator, ks, raw), J in itertools.product(fits, config.J_values):
        if isinstance(raw, str):
            row = (None, None, 0.0, raw)
        else:
            t0 = time.perf_counter()
            try:
                field = _row_field(raw, J, estimator, truth.grid)
                row = (ise(field, truth), negative_mass(field), time.perf_counter() - t0, None)
            except EstimationError as exc:
                row = (None, None, time.perf_counter() - t0, str(exc))
        out.update(dict.fromkeys([(J, k, estimator) for k in ks], row))
    return out


def software_versions() -> dict:
    """The wavedens artifact, the python, numpy and scipy versions and the
    machine's core count, for provenance records."""
    return {
        "artifact": f"wavedens {__version__}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cores": os.cpu_count(),
    }


def run_benchmark(config: BenchmarkConfig, workers: int = 1) -> BenchmarkReport:
    """Run the full sweep; the report is independent of the worker count.

    Replications are independent tasks keyed by their own RNG substream and
    reduced in fixed order; a failing row is marked rather than aborting the
    sweep.  ``workers`` is the thread count (1: serial).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cached_family(config.wavelet_order, DEFAULT_RESOLUTION)
    rows: list[BenchRow] = []
    for density in config.densities:
        spec = get_density(density)
        truth = true_density_field(spec, GridSpec.from_box(spec.domain, config.grid_resolution))
        for n in config.sample_sizes:
            task = functools.partial(_replicate_cell, spec, config, truth, n)
            # catch_warnings swaps process-wide filters: never enter it in a worker
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", KConsistencyWarning)
                if workers > 1:
                    with ThreadPoolExecutor(max_workers=workers) as pool:
                        results = list(pool.map(task, range(config.replications)))
                else:
                    results = list(map(task, range(config.replications)))
            for key in itertools.product(config.J_values, config.k_values, config.estimators):
                ises, negs, secs, errors = zip(*(res[key] for res in results))
                error = next((err for err in errors if err is not None), None)
                stats = (None, None, None) if error is not None else (*mise_aggregate(ises), float(np.mean(negs)))
                rows.append(BenchRow(density, n, *key, *stats, sum(secs), error))
    provenance = {"config": config.to_dict(), **software_versions()}
    return BenchmarkReport(rows=tuple(rows), provenance=provenance)


# ---------------------------------------------------------------------------
# statistical oracle checks
# ---------------------------------------------------------------------------


class MomentCheck(NamedTuple):
    empirical: float
    predicted: float
    z_score: float
    std_error: float


def moment_identity_check(
    a: float, k: int, n: int, replications: int, rng: np.random.Generator
) -> MomentCheck:
    """Check the nearest-neighbour moment identity on uniform data.

    For X uniform on the unit square, n^a c0^a Gamma(k)/Gamma(k+a) R^(a*d)
    has expectation 1 up to an O(n^{-1/d}) boundary term.  Returns the
    replication-averaged empirical mean, the predicted value 1, and the
    z-score against the Monte-Carlo standard error (which does not absorb
    the boundary bias).
    """
    if a <= 0:
        raise ValueError("a must be > 0")
    d = 2
    c0 = unit_ball_volume(d)
    factor = math.exp(gammaln(k) - gammaln(k + a)) * (n * c0) ** a
    rep_means = np.empty(replications)
    for m in range(replications):
        pts = rng.random((n, d))
        (radii,) = knn_stats(pts, [k])
        rep_means[m] = factor * np.mean(radii ** (a * d))
    empirical = float(rep_means.mean())
    se = float(rep_means.std(ddof=1) / math.sqrt(replications)) if replications > 1 else float("nan")
    z = (empirical - 1.0) / se if se and se > 0 else float("nan")
    return MomentCheck(empirical=empirical, predicted=1.0, z_score=z, std_error=se)


def ks_exponential(values) -> float:
    """One-sample Kolmogorov-Smirnov distance to the unit exponential law."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise ValueError("empty sample")
    cdf = 1.0 - np.exp(-vals)
    i = np.arange(1, vals.size + 1)
    d_plus = np.max(i / vals.size - cdf)
    d_minus = np.max(cdf - (i - 1) / vals.size)
    return float(max(d_plus, d_minus))


def exp_law_check(n: int, replications: int, rng: np.random.Generator) -> float:
    """KS distance of pooled n*V_(1) draws (interior points, uniform sample
    on the unit square) to the unit exponential limit law."""
    margin = n ** (-1.0 / 2)
    pooled = []
    for _ in range(replications):
        pts = rng.random((n, 2))
        (radii,) = knn_stats(pts, [1])
        scaled_volumes = n * (unit_ball_volume(2) * radii**2)
        interior = np.all((pts > margin) & (pts < 1.0 - margin), axis=1)
        pooled.append(scaled_volumes[interior])
    return ks_exponential(np.concatenate(pooled))
