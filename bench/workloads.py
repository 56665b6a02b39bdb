"""The three benchmark workloads: set-up, one timed operation, output checks.

Every input except the sweep's samples is generated here with numpy from the
benchmark seed, so a change to the program cannot change what it is given.
The sweep draws its samples inside ``run_benchmark``, which is the code under
test there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path
from statistics import median

import numpy as np

from wavedens import cli, estimator, metrics, simulation, wavelets

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WAVELET_ORDER = 6
DYADIC_RESOLUTION = 10
# 1e-12 relative: the tolerance the output checks allow between two routes to
# the same numbers (CLI against library, a run against the stored reference)
RTOL = 1e-12

# anisotropic-pair: a broad tilted ridge plus a tight isotropic peak, truncated
# to the unit square; the same parameters as the package's registry entry
_MIX_WEIGHTS = np.array([0.5, 0.5])
_MIX_MEANS = np.array([[0.35, 0.40], [0.72, 0.72]])
_MIX_COVS = np.array([[[0.040, 0.018], [0.018, 0.012]], [[0.0012, 0.0], [0.0, 0.0012]]])


def input_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def anisotropic_pair(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws from the truncated anisotropic-pair mixture, by rejection."""
    chols = np.linalg.cholesky(_MIX_COVS)
    out = np.empty((0, 2))
    while out.shape[0] < n:
        batch = 2 * (n - out.shape[0]) + 256
        comp = (rng.random(batch) >= _MIX_WEIGHTS[0]).astype(int)
        z = rng.standard_normal((batch, 2))
        draws = _MIX_MEANS[comp] + np.einsum("bij,bj->bi", chols[comp], z)
        inside = np.all((draws >= 0.0) & (draws <= 1.0), axis=1)
        out = np.vstack([out, draws[inside]])
    return out[:n]


def write_points_csv(path: Path, points: np.ndarray) -> None:
    # 17 significant digits read back to the same doubles
    np.savetxt(path, points, fmt="%.17g", delimiter=",", header="x1,x2", comments="")


def read_field_csv(path: Path) -> np.ndarray:
    """Rows of an ``eval`` output: a provenance comment, a header, then data."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=2))


def mismatch(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest elementwise |actual - expected| / |expected|; inf if shapes differ."""
    if actual.shape != expected.shape:
        return math.inf
    diff = np.abs(actual - expected)
    scale = np.abs(expected)
    if np.any(diff[scale == 0.0] != 0.0):
        return math.inf
    nonzero = scale > 0.0
    return float(np.max(diff[nonzero] / scale[nonzero], initial=0.0))


def coefficient_mismatch(actual: dict, expected: dict) -> float:
    """Largest coefficient difference relative to the largest expected value;
    an entry absent from one side counts as zero there."""
    keys = set(actual) | set(expected)
    worst = max(abs(actual.get(k, 0.0) - expected.get(k, 0.0)) for k in keys)
    return worst / max(abs(v) for v in expected.values())


def same_rows(actual: list, expected: list) -> bool:
    """Bit-identical rows, NaN included: at one replication the spread
    columns are NaN, which never equals itself."""
    return json.dumps(actual) == json.dumps(expected)


def coefficient_map(coeffs) -> dict:
    return {(b.level, tuple(b.translate), b.orientation): v for b, v in coeffs.entries.items()}


def model_failures(model, label: str) -> list[str]:
    """f = g^2 finite and nonnegative on a 128^d grid; unit coefficient mass
    when the model says it is normalized."""
    failures = []
    values = np.fromiter(model.coefficients.entries.values(), dtype=float)
    if not np.all(np.isfinite(values)):
        failures.append(f"{label}: non-finite coefficient")
    elif model.coefficients.normalized and abs(float(values @ values) - 1.0) > RTOL:
        failures.append(f"{label}: coefficient mass {float(values @ values)!r} is not 1")
    field = metrics.grid_eval(model, metrics.GridSpec.unit(model.d, 128)).values
    if not np.all(np.isfinite(field)) or field.min() < 0.0:
        failures.append(f"{label}: f is negative or non-finite on the grid")
    return failures


def clear_program_caches() -> None:
    """Forget the wavelet tables and mixture normalizers, so that each set-up
    pays what a fresh process pays."""
    wavelets.cached_family.cache_clear()
    simulation.get_density.cache_clear()


class Workload:
    """Base: ``setup`` may run several times; ``operation`` is the timed unit
    and returns (seconds per timed call, outputs); ``check`` turns outputs
    into (operations attempted, failure messages).

    With ``compare_reference``, workloads that store a reference also compare
    their outputs with ``reference/<name>.json``.
    """

    name = ""
    has_reference = False
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, workdir: Path, compare_reference: bool):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.reference_path = REFERENCE_DIR / f"{self.name}.json"
        self.compare_reference = compare_reference and self.has_reference
        self.reference = None
        if self.compare_reference and self.reference_path.is_file():
            self.reference = json.loads(self.reference_path.read_text())

    def reference_failures(self) -> list[str]:
        if self.compare_reference and self.reference is None:
            return [f"{self.name}: no stored reference output at {self.reference_path.name}"]
        return []

    def write_reference(self) -> None:
        if not self.has_reference:
            raise SystemExit(f"{self.name} stores no reference output")
        REFERENCE_DIR.mkdir(exist_ok=True)
        self.reference_path.write_text(json.dumps(self.reference_payload()) + "\n")


class Fit100k(Workload):
    """Large-n scatter path: one fit_model call on 100 000 points."""

    name = "fit-100k"
    has_reference = True
    expected_spans = (
        "wavelets.build_family",
        "neighbors.knn_stats",
        "estimator.fit_model",
        "estimator.estimate_coefficients",
        "estimator.normalize",
        "estimator.DensityModel.__init__",
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 4096 if self.smoke else 100_000
        self.config = estimator.EstimatorConfig(wavelet_order=WAVELET_ORDER, j0=0, J=3, k=1)

    def setup(self):
        clear_program_caches()
        self.points = anisotropic_pair(input_rng(self.seed, 1), self.n)
        wavelets.cached_family(WAVELET_ORDER, DYADIC_RESOLUTION)

    def operation(self):
        t0 = time.perf_counter()
        model = estimator.fit_model(self.points, self.config)
        return {"fit": time.perf_counter() - t0}, model

    def check(self, model):
        failures = model_failures(model, "fit")
        coeffs = coefficient_map(model.coefficients)
        if self.reference is not None:
            expected = {
                (j, tuple(z), q): v for j, z, q, v in self.reference["coefficients"]
            }
            worst = coefficient_mismatch(coeffs, expected)
            if not worst <= RTOL:
                failures.append(f"fit: coefficients differ from the reference by {worst:.3g}")
        self.coefficients = coeffs
        return 1, failures

    def reference_payload(self):
        rows = [[j, list(z), q, v] for (j, z, q), v in sorted(self.coefficients.items())]
        return {"seed": self.seed, "n": self.n, "coefficients": rows}

    def named_metrics(self, timings):
        return {"fit_s": (median(t["fit"] for t in timings), "s")}


class SweepDesk(Workload):
    """Many small models: the README desk sweep at one replication, so that a
    run holds many sweeps and their median is steady."""

    name = "sweep-desk"
    has_reference = True
    replications = 1
    expected_spans = (
        "wavelets.build_family",
        "neighbors.knn_stats",
        "estimator.estimate_coefficients",
        "estimator.normalize",
        "estimator.truncate_details",
        "estimator.DensityModel.__init__",
        "estimator.DensityModel.density_on_axes",
        "estimator.DensityModel.reconstruct_on_axes",
        "classical.classical_coefficients",
        "metrics.grid_eval",
        "simulation.sample_mixture",
        "simulation.true_density_field",
        "simulation.run_benchmark",
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.config = simulation.BenchmarkConfig(
            densities=("anisotropic-pair", "similar-pair", "comb4"),
            sample_sizes=(128,) if self.smoke else (128, 512, 2048),
            replications=self.replications,
            J_values=(-1, 0, 1, 2, 3),
            k_values=(1, 2, 4, 8),
            wavelet_order=WAVELET_ORDER,
            grid_resolution=128,
            seed=self.seed,
            estimators=(simulation.SHAPE_PRESERVING, simulation.CLASSICAL),
        )
        c = self.config
        self.cells = len(c.densities) * len(c.sample_sizes) * c.replications
        self.row_count = (
            len(c.densities) * len(c.sample_sizes) * len(c.J_values)
            * len(c.k_values) * len(c.estimators)
        )
        self.first_rows = None

    def setup(self):
        clear_program_caches()
        for density in self.config.densities:
            simulation.get_density(density)
        wavelets.cached_family(WAVELET_ORDER, DYADIC_RESOLUTION)

    def operation(self):
        t0 = time.perf_counter()
        report = simulation.run_benchmark(self.config, workers=1)
        return {"sweep": time.perf_counter() - t0}, report

    def check(self, report):
        rows = [list(row._replace(wall_time=None)) for row in report.rows]
        failures = []
        for row in report.rows:
            cell = tuple(row[:5])
            if row.error is not None:
                failures.append(f"sweep row {cell}: {row.error}")
            elif not math.isfinite(row.mise):
                failures.append(f"sweep row {cell}: MISE {row.mise!r}")
            elif row.estimator == simulation.SHAPE_PRESERVING and row.mean_negative_mass != 0.0:
                failures.append(f"sweep row {cell}: f < 0 somewhere on the grid")
        if len(rows) != self.row_count:
            failures.append(f"sweep: {len(rows)} rows, expected {self.row_count}")
        if self.first_rows is None:
            self.first_rows = rows
        elif not same_rows(rows, self.first_rows):
            failures.append("sweep: rows differ between two sweeps of one run")
        if self.reference is not None and not same_rows(rows, self.reference["rows"]):
            failures.append("sweep: rows differ from the stored reference")
        sp = [r.mise for r in report.rows if r.estimator == simulation.SHAPE_PRESERVING]
        self.mise_sp = float(np.mean(sp)) if None not in sp else math.nan
        return max(len(rows), self.row_count), failures

    def reference_payload(self):
        return {"seed": self.seed, "replications": self.replications, "rows": self.first_rows}

    def named_metrics(self, timings):
        return {
            "sweep_reps_per_s": (self.cells / median(t["sweep"] for t in timings), "1/s"),
            "sweep_mise_sp": (self.mise_sp, "1"),
        }


class Eval10k(Workload):
    """Read side: library point evaluation, then the CLI's fit and eval.

    10 000 queries keep a round near 6 s, so a run holds several rounds;
    point evaluation is per point, so the path is the same as at 50 000.
    """

    name = "eval-10k"
    expected_spans = (
        "wavelets.build_family",
        "neighbors.knn_stats",
        "estimator.fit_model",
        "estimator.estimate_coefficients",
        "estimator.soft_threshold",
        "estimator.normalize",
        "estimator.DensityModel.__init__",
        "estimator.DensityModel.density",
        "estimator.DensityModel.reconstruct",
        "estimator.write_coefficients",
        "estimator.model_from_file",
        "cli.main",
        "cli.read_points_csv",
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.n_fit, self.n_query, self.grid = (512, 2000, 16) if self.smoke else (2048, 10_000, 128)
        self.config = estimator.EstimatorConfig(
            wavelet_order=WAVELET_ORDER, j0=0, J=3, k=1, threshold_constant=1.0
        )
        self.points_csv = self.workdir / "points.csv"
        self.queries_csv = self.workdir / "queries.csv"
        self.model_json = self.workdir / "model.json"
        self.eval_csv = self.workdir / "eval.csv"
        self.grid_csv = self.workdir / "grid.csv"
        self.fit_argv = [
            "fit", str(self.points_csv), "-o", str(self.model_json), "--wavelet", "db6",
            "--j0", "0", "--J", "3", "--k", "1", "--threshold", "1.0", "--seed", str(self.seed),
        ]
        self.eval_argv = ["eval", str(self.model_json), str(self.queries_csv), "-o", str(self.eval_csv)]
        self.grid_argv = ["eval", str(self.model_json), "--grid", str(self.grid), "-o", str(self.grid_csv)]
        self.grid_expected = None

    def setup(self):
        clear_program_caches()
        self.points = anisotropic_pair(input_rng(self.seed, 2), self.n_fit)
        self.queries = input_rng(self.seed, 3).random((self.n_query, 2))
        write_points_csv(self.points_csv, self.points)
        write_points_csv(self.queries_csv, self.queries)
        self.model = estimator.fit_model(self.points, self.config)

    def _cli(self, argv, timings, key):
        stderr = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        timings[key] = time.perf_counter() - t0
        return code, stderr.getvalue()

    def operation(self):
        timings = {}
        t0 = time.perf_counter()
        f = self.model.density(self.queries)
        timings["density"] = time.perf_counter() - t0
        fit = self._cli(self.fit_argv, timings, "cli_fit")
        evaluated = self._cli(self.eval_argv, timings, "cli_eval_points")
        gridded = self._cli(self.grid_argv, timings, "cli_eval_grid")
        return timings, (f, fit, evaluated, gridded)

    def check(self, outputs):
        f, fit, evaluated, gridded = outputs
        failures = []
        if not np.all(np.isfinite(f)) or f.min() < 0.0:
            failures.append("density: f is negative or non-finite")
        for label, (code, stderr) in (("cli fit", fit), ("cli eval", evaluated), ("cli eval --grid", gridded)):
            if code != 0:
                failures.append(f"{label}: exit code {code}: {stderr.strip()}")
        if failures:
            return 4, failures
        model, _ = estimator.model_from_file(self.model_json)
        failures += model_failures(model, "cli fit")
        worst = coefficient_mismatch(
            coefficient_map(model.coefficients), coefficient_map(self.model.coefficients)
        )
        if not worst <= RTOL:
            failures.append(f"cli fit: coefficients differ from fit_model by {worst:.3g}")
        failures += self._field_failures("cli eval", self.eval_csv, self.queries, f)
        if self.grid_expected is None:
            centers = metrics.GridSpec.unit(2, self.grid).cell_centers()
            self.grid_expected = (centers, self.model.density(centers))
        failures += self._field_failures("cli eval --grid", self.grid_csv, *self.grid_expected)
        return 4, failures

    @staticmethod
    def _field_failures(label, path, points, expected_f) -> list[str]:
        rows = read_field_csv(path)
        if rows.shape != (points.shape[0], 4):
            return [f"{label}: {rows.shape[0]} rows of {rows.shape[1]} columns, expected {points.shape[0]} of 4"]
        failures = []
        coords, g, f = rows[:, :2], rows[:, 2], rows[:, 3]
        if not np.array_equal(coords, points):
            failures.append(f"{label}: coordinates differ from the queries")
        if not np.all(np.isfinite(f)) or f.min() < 0.0:
            failures.append(f"{label}: f is negative or non-finite")
        worst = mismatch(f, expected_f)
        if not worst <= RTOL:
            failures.append(f"{label}: f differs from DensityModel.density by {worst:.3g}")
        if not mismatch(g * g, f) <= RTOL:
            failures.append(f"{label}: f is not g^2")
        return failures

    def named_metrics(self, timings):
        def med(key):
            return median(t[key] for t in timings)

        return {
            "density_points_per_s": (self.n_query / med("density"), "1/s"),
            "cli_eval_points_per_s": (self.n_query / med("cli_eval_points"), "1/s"),
            "cli_eval_grid_s": (med("cli_eval_grid"), "s"),
            "cli_fit_s": (med("cli_fit"), "s"),
        }


WORKLOADS = {cls.name: cls for cls in (Fit100k, SweepDesk, Eval10k)}
