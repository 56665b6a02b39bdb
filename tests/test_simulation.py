import dataclasses
import json
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from heap import traced_peak
from wavedens import simulation
from wavedens.errors import BudgetError, ConfigurationError, DataError, KConsistencyWarning
from wavedens.metrics import GridSpec, mass
from wavedens.simulation import (
    BenchmarkConfig,
    exp_law_check,
    get_density,
    ks_exponential,
    make_mixture,
    moment_identity_check,
    replication_rng,
    run_benchmark,
    sample_mixture,
    true_density_field,
)

# both estimators, with k that n = 4 cannot support; the expected rows, wall
# time stripped, are frozen in data/mixed_sweep_rows.json
MIXED_SWEEP = BenchmarkConfig(
    densities=("similar-pair",), sample_sizes=(4, 64), replications=2,
    J_values=(-1, 1), k_values=(1, 4, 8), wavelet_order=2, grid_resolution=32, seed=13,
)
MIXED_SWEEP_ROWS = Path(__file__).parent / "data" / "mixed_sweep_rows.json"


class TestRegistry:
    @pytest.mark.parametrize("name", ["anisotropic-pair", "similar-pair", "comb4", "uniform"])
    def test_specs_load(self, name):
        spec = get_density(name)
        assert spec.normalizer > 0.0
        assert spec.d == 2

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_density("no-such-density")

    def test_similar_pair_is_symmetric(self):
        field = true_density_field(get_density("similar-pair"), GridSpec.unit(2, 64))
        # invariant under the point reflection (x, y) -> (1-x, 1-y)
        np.testing.assert_allclose(field.values, field.values[::-1, ::-1], rtol=1e-12)

    @pytest.mark.parametrize("name", ["anisotropic-pair", "similar-pair", "comb4"])
    def test_field_mass_close_to_one(self, name):
        field = true_density_field(get_density(name), GridSpec.unit(2, 128))
        assert abs(mass(field) - 1.0) < 1e-3

    def test_uniform_field_mass_exact(self):
        field = true_density_field(get_density("uniform"), GridSpec.unit(2, 128))
        assert mass(field) == pytest.approx(1.0, abs=1e-14)

    def test_weights_validation(self):
        with pytest.raises(ConfigurationError):
            make_mixture("bad", [0.5, 0.6], [[0.5, 0.5]] * 2,
                         [np.eye(2) * 0.01] * 2, [[0, 1], [0, 1]])

    def test_covariance_validation(self):
        with pytest.raises(ConfigurationError):
            make_mixture("bad", [1.0], [[0.5, 0.5]],
                         [[[0.01, 0.02], [0.02, 0.01]]], [[0, 1], [0, 1]])


class TestSampling:
    def test_points_inside_box(self):
        spec = get_density("anisotropic-pair")
        rng = replication_rng(7, "anisotropic-pair", 500, 0)
        pts = sample_mixture(spec, 500, rng)
        assert pts.shape == (500, 2)
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)

    def test_deterministic_given_stream(self):
        spec = get_density("comb4")
        a = sample_mixture(spec, 200, replication_rng(9, "comb4", 200, 3))
        b = sample_mixture(spec, 200, replication_rng(9, "comb4", 200, 3))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_replications(self):
        spec = get_density("comb4")
        a = sample_mixture(spec, 50, replication_rng(9, "comb4", 50, 0))
        b = sample_mixture(spec, 50, replication_rng(9, "comb4", 50, 1))
        assert not np.array_equal(a, b)

    def test_tight_component_mean(self):
        spec = make_mixture("tight", [1.0], [[0.5, 0.5]],
                            [np.eye(2) * 1e-4], [[0, 1], [0, 1]])
        rng = np.random.Generator(np.random.Philox(5))
        pts = sample_mixture(spec, 4000, rng)
        se = 0.01 / np.sqrt(4000)
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 3 * se)

    def test_degenerate_truncation_raises(self):
        spec = dataclasses.replace(
            make_mixture("far", [1.0], [[0.5, 0.5]], [np.eye(2) * 1e-4], [[0, 1], [0, 1]]),
            means=np.array([[25.0, 25.0]]),
        )
        rng = np.random.Generator(np.random.Philox(6))
        with pytest.raises(ConfigurationError):
            sample_mixture(spec, 100, rng)

    def test_uniform_sampling(self):
        spec = get_density("uniform")
        pts = sample_mixture(spec, 1000, np.random.Generator(np.random.Philox(8)))
        assert np.all((pts >= 0) & (pts <= 1))
        assert abs(pts.mean() - 0.5) < 0.02


class TestTrueDensityField:
    def test_matches_untruncated_gaussian_on_huge_box(self):
        spec = make_mixture("wide", [1.0], [[0.0, 0.0]], [np.eye(2)],
                            [[-8.0, 8.0], [-8.0, 8.0]])
        assert spec.normalizer == pytest.approx(1.0, abs=1e-9)
        grid = GridSpec.from_box(spec.domain, 64)
        field = true_density_field(spec, grid)
        centers = grid.cell_centers()
        expected = np.exp(-0.5 * np.sum(centers**2, axis=1)) / (2 * np.pi)
        np.testing.assert_allclose(field.values.ravel(), expected, atol=1e-9)


class TestStatisticalChecks:
    def test_ks_exponential_hand_case(self):
        # single observation at log 2: F = 0.5, ecdf jumps 0 -> 1
        assert ks_exponential([np.log(2.0)]) == pytest.approx(0.5)

    def test_ks_self_test(self):
        rng = np.random.default_rng(123)
        sample = rng.exponential(size=20_000)
        assert ks_exponential(sample) < 1.358 / np.sqrt(20_000)

    def test_moment_check_deterministic(self):
        a = moment_identity_check(0.5, 1, 256, 20, np.random.Generator(np.random.Philox(3)))
        b = moment_identity_check(0.5, 1, 256, 20, np.random.Generator(np.random.Philox(3)))
        assert a == b
        assert a.predicted == 1.0
        assert abs(a.empirical - 1.0) < 0.1

    def test_exp_law_small_sanity(self):
        ks = exp_law_check(256, 5, np.random.Generator(np.random.Philox(4)))
        assert 0.0 < ks < 0.2


class TestBenchmark:
    def test_uniform_trend_only_has_zero_mise(self):
        config = BenchmarkConfig(
            densities=("uniform",), sample_sizes=(128,), replications=1,
            J_values=(-1,), k_values=(1,), wavelet_order=1, grid_resolution=32,
            seed=5, estimators=("shape-preserving",),
        )
        report = run_benchmark(config, workers=1)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.error is None
        assert row.mise == 0.0
        assert np.isnan(row.mise_se)  # singleton replication
        assert row.mean_negative_mass == 0.0

    def test_row_count_is_cross_product(self):
        config = BenchmarkConfig(
            densities=("uniform", "similar-pair"), sample_sizes=(32, 64), replications=2,
            J_values=(-1, 0), k_values=(1, 2), wavelet_order=1, grid_resolution=16, seed=1,
        )
        report = run_benchmark(config, workers=2)
        assert len(report.rows) == 2 * 2 * 2 * 2 * 2
        assert not report.failed

    def test_classical_rows_repeat_across_k(self):
        config = BenchmarkConfig(
            densities=("uniform",), sample_sizes=(64,), replications=3,
            J_values=(0,), k_values=(1, 4), wavelet_order=1, grid_resolution=16, seed=2,
        )
        report = run_benchmark(config, workers=1)
        classical = {row.k: row for row in report.rows if row.estimator == "classical"}
        assert classical[1].mise == classical[4].mise

    def test_negative_mass_signs_by_estimator(self):
        config = BenchmarkConfig(
            densities=("similar-pair",), sample_sizes=(128,), replications=3,
            J_values=(1,), k_values=(1,), wavelet_order=6, grid_resolution=32, seed=6,
        )
        report = run_benchmark(config, workers=1)
        for row in report.rows:
            if row.estimator == "shape-preserving":
                assert row.mean_negative_mass == 0.0
            else:
                assert row.mean_negative_mass <= 0.0

    def test_failed_rows_marked_not_raised(self):
        config = BenchmarkConfig(
            densities=("uniform",), sample_sizes=(4,), replications=2,
            J_values=(-1,), k_values=(1, 8), wavelet_order=1, grid_resolution=16,
            seed=3, estimators=("shape-preserving",),
        )
        report = run_benchmark(config, workers=1)
        by_k = {row.k: row for row in report.rows}
        assert by_k[8].error is not None and by_k[8].mise is None
        assert by_k[1].error is None
        assert report.failed

    def test_mixed_sweep_rows_are_frozen(self):
        rows = [
            {key: val for key, val in row._asdict().items() if key != "wall_time"}
            for row in run_benchmark(MIXED_SWEEP, workers=1).rows
        ]
        assert rows == json.loads(MIXED_SWEEP_ROWS.read_text())

    def test_classical_rows_that_fail_at_evaluation(self, monkeypatch):
        config = dataclasses.replace(MIXED_SWEEP, sample_sizes=(64,))
        shape_preserving = [
            row._replace(wall_time=0.0) for row in run_benchmark(config, workers=1).rows
            if row.estimator == "shape-preserving"
        ]
        monkeypatch.setattr(simulation, "mass", lambda field: 0.0)
        report = run_benchmark(config, workers=1)
        classical = [row for row in report.rows if row.estimator == "classical"]
        assert sorted((row.J, row.k) for row in classical) == [
            (J, k) for J in config.J_values for k in config.k_values
        ]
        assert all(row.error == "non-positive grid mass" and row.mise is None for row in classical)
        assert [
            row._replace(wall_time=0.0) for row in report.rows if row.estimator == "shape-preserving"
        ] == shape_preserving

    def test_deterministic_and_worker_invariant(self):
        config = BenchmarkConfig(
            densities=("similar-pair",), sample_sizes=(64,), replications=4,
            J_values=(-1, 0), k_values=(1,), wavelet_order=2, grid_resolution=32, seed=11,
        )
        rows = []
        for workers in (1, 3, 2):
            report = run_benchmark(config, workers=workers)
            rows.append([row._replace(wall_time=0.0) for row in report.rows])
        assert rows[0] == rows[1] == rows[2]

    def test_sample_reuse_across_sweeps(self):
        # substreams are keyed by (density, n, replication), so a row present
        # in two different sweep configs gets identical statistics
        common = dict(densities=("similar-pair",), replications=2, wavelet_order=2,
                      grid_resolution=32, seed=21, estimators=("shape-preserving",))
        rep_a = run_benchmark(BenchmarkConfig(sample_sizes=(64,), J_values=(0,), k_values=(1,), **common), workers=1)
        rep_b = run_benchmark(BenchmarkConfig(sample_sizes=(32, 64), J_values=(-1, 0), k_values=(1, 2), **common), workers=1)
        target = [row for row in rep_b.rows if (row.n, row.J, row.k) == (64, 0, 1)][0]
        assert rep_a.rows[0].mise == target.mise

    def test_report_files(self, tmp_path):
        config = BenchmarkConfig(
            densities=("uniform",), sample_sizes=(32,), replications=2,
            J_values=(-1, 0), k_values=(1,), wavelet_order=1, grid_resolution=16, seed=4,
        )
        report = run_benchmark(config, workers=1)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "report.csv"
        report.write_json(jpath)
        report.write_csv(cpath)
        doc = json.loads(jpath.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == len(report.rows)
        assert doc["provenance"]["config"]["seed"] == 4
        assert doc["provenance"]["python"] == platform.python_version()
        assert doc["provenance"]["numpy"] == np.__version__
        assert doc["provenance"]["scipy"] == scipy.__version__
        assert doc["provenance"]["cores"] == os.cpu_count()
        lines = cpath.read_text().strip().splitlines()
        assert lines[1] == "density,n,J_plus_1,k,sp_mise,sp_se,classical_mise,classical_se"
        assert len(lines) == 2 + 2  # comment, header, one line per (J, k) cell

    def test_only_the_k_warning_is_silenced(self, monkeypatch):
        real_estimate = simulation.estimate_coefficient_sets

        def overflowing_estimate(points, config, ks):
            warnings.warn("overflow in a numpy kernel", RuntimeWarning)
            return real_estimate(points, config, ks)

        monkeypatch.setattr(simulation, "estimate_coefficient_sets", overflowing_estimate)
        # k=8 at n=32 fails the consistency check, so every fit raises the k warning
        config = BenchmarkConfig(
            densities=("uniform",), sample_sizes=(32,), replications=1, J_values=(0,),
            k_values=(8,), wavelet_order=1, grid_resolution=16, seed=4,
            estimators=("shape-preserving",),
        )
        with pytest.warns(RuntimeWarning, match="overflow") as record:
            report = run_benchmark(config, workers=1)
        assert not report.failed
        assert not any(issubclass(w.category, KConsistencyWarning) for w in record)

    def test_k_warning_filter_is_thread_safe(self, monkeypatch):
        real_estimate = simulation.estimate_coefficient_sets

        def overflowing_estimate(points, config, ks):
            warnings.warn("overflow in a numpy kernel", RuntimeWarning)
            return real_estimate(points, config, ks)

        monkeypatch.setattr(simulation, "estimate_coefficient_sets", overflowing_estimate)
        # every fit raises the k warning (k >= 8 at n=32); a filter entered in
        # a worker thread and left early would let some of them through
        config = BenchmarkConfig(
            densities=("uniform",), sample_sizes=(32,), replications=8, J_values=(0,),
            k_values=(8, 12, 16, 20), wavelet_order=1, grid_resolution=16, seed=4,
            estimators=("shape-preserving",),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # frequent thread switches widen the race
        try:
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                for _ in range(20):
                    run_benchmark(config, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert not any(issubclass(w.category, KConsistencyWarning) for w in record)
        # one estimation call per replication serves all four k
        assert sum(issubclass(w.category, RuntimeWarning) for w in record) == 20 * 8

    def test_config_json_round_trip(self, tmp_path):
        config = BenchmarkConfig(seed=99)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert BenchmarkConfig.from_json(path) == config

    def test_config_json_bad_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not_a_field": 1}')
        with pytest.raises(DataError):
            BenchmarkConfig.from_json(path)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_rejected(self, workers):
        config = BenchmarkConfig(densities=("uniform",), sample_sizes=(32,), replications=1, J_values=(0,), k_values=(1,))
        with pytest.raises(ValueError, match="workers"):
            run_benchmark(config, workers=workers)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(replications=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(estimators=("other",))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replications", 1.5),
            ("replications", True),
            ("sample_sizes", (32.0,)),
            ("J_values", (0.5,)),
            ("k_values", (1, "2")),
            ("grid_resolution", 16.5),
            ("densities", "uniform"),
            ("estimators", "classical"),
        ],
    )
    def test_config_rejects_non_integers_and_bare_strings(self, field, value):
        with pytest.raises(ValueError, match=field):
            BenchmarkConfig(**{field: value})

    def test_config_takes_numpy_integers(self):
        config = BenchmarkConfig(
            sample_sizes=(np.int32(32),), replications=np.int64(2), J_values=(np.int64(-1),),
            k_values=(np.int16(1),), grid_resolution=np.int64(16), seed=np.uint32(3),
        )
        assert config.replications == 2

    def test_a_truth_grid_past_the_budget_is_refused_before_it_allocates(self):
        config = BenchmarkConfig(
            densities=("uniform",), sample_sizes=(32,), replications=1, J_values=(0,), k_values=(1,),
            grid_resolution=4097,
        )
        run_benchmark(dataclasses.replace(config, grid_resolution=4))

        def run():
            with pytest.raises(BudgetError, match="a 4097\\^2 grid holds 16785409 cells"):
                run_benchmark(config)

        _, peak = traced_peak(run)
        assert peak < 2**20
