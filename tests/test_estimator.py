import json
import math

import numpy as np
import pytest

import dict_oracle as oracle
from basis_oracle import supported_translates, tensor_basis_at
from dict_oracle import radii_and_volumes
from heap import traced_peak
from wavedens import estimator
from wavedens.classical import classical_coefficients, fit_classical
from wavedens.errors import DataError, DegenerateModelError, EstimationError
from wavedens.estimator import (
    DensityModel,
    EstimatorConfig,
    consistency_factor,
    dilation_coefficients,
    estimate_coefficients,
    fit_model,
    model_from_file,
    normalization_mass,
    normalize,
    read_coefficients,
    rescale_to_domain,
    soft_threshold,
    truncate_details,
    write_coefficients,
)
from wavedens.simulation import BenchmarkConfig, run_benchmark
from wavedens.wavelets import BasisIndex, cached_family

HAND_POINTS = np.array([[0.2], [0.4], [0.7]])

# independent hand arithmetic for the 3-point Haar fixture:
# radii (0.2, 0.2, 0.3), c0 = 2, volumes (0.4, 0.4, 0.6)
HAND_ALPHA = (2.0 / math.sqrt(math.pi)) / math.sqrt(3.0) * (
    2.0 * math.sqrt(0.4) + math.sqrt(0.6)
)


def haar_trend_config(**kw):
    defaults = dict(wavelet_order=1, j0=0, J=-1, k=1, normalize=False)
    defaults.update(kw)
    return EstimatorConfig(**defaults)


def make_set(entries, **kw):
    meta = dict(
        d=1, n=10, k=1, j0=0, J=0, wavelet_order=1,
        normalized=False,
    )
    meta.update(kw)
    return oracle.coefficient_set(entries, **meta)


class TestConsistencyFactor:
    def test_k1(self):
        assert consistency_factor(1) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-10)
        assert consistency_factor(1) == pytest.approx(1.1283791671, abs=1e-9)

    def test_k2(self):
        assert consistency_factor(2) == pytest.approx(4.0 / (3.0 * math.sqrt(math.pi)), abs=1e-12)

    def test_large_k_asymptotics(self):
        k = 10_000
        assert math.sqrt(k) * consistency_factor(k) == pytest.approx(1.0, rel=0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            consistency_factor(0)


class TestEstimateCoefficients:
    def test_hand_oracle(self):
        with pytest.warns(UserWarning):
            coeffs = estimate_coefficients(HAND_POINTS, haar_trend_config())
        assert set(coeffs.entries) == {BasisIndex(0, (0,), 0)}
        assert coeffs.entries[BasisIndex(0, (0,), 0)] == pytest.approx(HAND_ALPHA, abs=1e-12)

    def test_trend_only_has_only_father_entries(self):
        rng = np.random.default_rng(0)
        pts = rng.random((50, 2))
        coeffs = estimate_coefficients(pts, EstimatorConfig(wavelet_order=2, j0=1, J=0, k=1))
        assert all(key.orientation == 0 and key.level == 1 for key in coeffs.entries)

    def test_detail_levels_present(self):
        rng = np.random.default_rng(1)
        pts = rng.random((100, 2))
        coeffs = estimate_coefficients(pts, EstimatorConfig(wavelet_order=1, j0=0, J=1, k=1))
        levels = {(key.level, key.orientation) for key in coeffs.entries}
        assert (0, 0) in levels
        for q in (1, 2, 3):
            assert (0, q) in levels and (1, q) in levels

    def test_too_few_points(self):
        with pytest.raises(EstimationError):
            estimate_coefficients(np.array([[0.5]]), haar_trend_config())

    def test_k_too_large(self):
        with pytest.raises(EstimationError):
            estimate_coefficients(HAND_POINTS, haar_trend_config(k=3))

    def test_outside_domain_mentions_rescale(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.2, 0.8]])
        with pytest.raises(EstimationError, match="rescale"):
            estimate_coefficients(pts, EstimatorConfig(wavelet_order=1, j0=0, J=-1))

    def test_k_condition_warning(self):
        rng = np.random.default_rng(2)
        pts = rng.random((20, 1))
        with pytest.warns(UserWarning, match="consistency"):
            estimate_coefficients(pts, haar_trend_config(k=18))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 2))
        cfg = EstimatorConfig(wavelet_order=6, j0=0, J=1, k=1, normalize=False)
        base = estimate_coefficients(pts, cfg)
        shuffled = estimate_coefficients(pts[rng.permutation(200)], cfg)
        assert set(base.entries) == set(shuffled.entries)
        for key, val in base.entries.items():
            assert abs(shuffled.entries[key] - val) < 1e-12

    def test_duplicate_points_contribute_zero(self):
        pts = np.array([[0.5], [0.5], [0.9]])
        with pytest.warns(UserWarning):
            coeffs = estimate_coefficients(pts, haar_trend_config())
        # duplicates have zero volume; only the 0.9 point contributes
        expected = consistency_factor(1) / math.sqrt(3) * math.sqrt(2 * 0.4)
        assert coeffs.entries[BasisIndex(0, (0,), 0)] == pytest.approx(expected, abs=1e-12)

    def test_coefficient_mean_near_truth_on_uniform(self):
        # trend coefficient targets integral of sqrt(f) = 1 on uniform data
        rng = np.random.default_rng(4)
        cfg = EstimatorConfig(wavelet_order=1, j0=0, J=-1, k=1, normalize=False)
        key = BasisIndex(0, (0, 0), 0)
        values = []
        for _ in range(200):
            coeffs = estimate_coefficients(rng.random((1024, 2)), cfg)
            values.append(coeffs.entries[key])
        assert abs(np.mean(values) - 1.0) < 0.05


class TestNormalization:
    def test_mass_examples(self):
        assert normalization_mass(make_set({BasisIndex(0, (0,), 0): 2.0})) == 4.0
        assert normalization_mass(make_set({})) == 0.0

    def test_normalize_single_entry(self):
        out = normalize(make_set({BasisIndex(0, (0,), 0): 2.0}))
        assert out.entries[BasisIndex(0, (0,), 0)] == 1.0
        assert out.normalized

    def test_normalize_unit_mass_unchanged(self):
        entries = {BasisIndex(0, (0,), 0): 0.6, BasisIndex(0, (1,), 0): 0.8}
        out = normalize(make_set(entries))
        assert normalization_mass(out) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(list(out.entries.values()), [0.6, 0.8])

    def test_idempotent(self):
        once = normalize(make_set({BasisIndex(0, (0,), 0): 3.7, BasisIndex(0, (2,), 0): -1.1}))
        twice = normalize(once)
        assert twice.entries == once.entries

    def test_zero_mass_degenerate(self):
        with pytest.raises(DegenerateModelError):
            normalize(make_set({}))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_non_finite_mass_degenerate(self, value):
        with pytest.raises(DegenerateModelError, match="cannot normalize a coefficient set of mass"):
            normalize(make_set({BasisIndex(0, (0,), 0): value}))


class TestSoftThreshold:
    def test_shrinks_detail(self):
        # j=0, n=25, C=1 gives threshold 0.2
        cs = make_set({BasisIndex(0, (0,), 1): 0.5}, n=25)
        out = soft_threshold(cs, 1.0)
        assert out.entries[BasisIndex(0, (0,), 1)] == pytest.approx(0.3, abs=1e-15)

    def test_removes_small_detail(self):
        cs = make_set({BasisIndex(0, (0,), 1): -0.1}, n=25)
        out = soft_threshold(cs, 1.0)
        assert BasisIndex(0, (0,), 1) not in out.entries

    def test_zero_constant_is_identity(self):
        cs = make_set({BasisIndex(0, (0,), 1): 0.5})
        assert soft_threshold(cs, 0.0) is cs

    def test_trend_untouched(self):
        cs = make_set({BasisIndex(0, (0,), 0): 0.01, BasisIndex(0, (1,), 1): 0.01}, n=25)
        out = soft_threshold(cs, 1.0)
        assert out.entries[BasisIndex(0, (0,), 0)] == 0.01
        assert BasisIndex(0, (1,), 1) not in out.entries

    def test_level_dependent_threshold(self):
        # t_j = C sqrt(j+1)/sqrt(n): j=3, C=1, n=16 gives 0.5
        cs = make_set({BasisIndex(3, (0,), 1): 0.75}, J=3, n=16)
        out = soft_threshold(cs, 1.0)
        assert out.entries[BasisIndex(3, (0,), 1)] == pytest.approx(0.25, abs=1e-15)

    def test_trend_only_entries_unchanged(self):
        cs = make_set({BasisIndex(1, (0,), 0): 0.01, BasisIndex(1, (1,), 0): -0.02}, j0=1, J=0, n=25)
        assert soft_threshold(cs, 1.0).entries == cs.entries

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(make_set({}), -1.0)

    def test_nan_constant_rejected(self):
        with pytest.raises(ValueError, match="threshold constant must be >= 0, got nan"):
            soft_threshold(make_set({}), math.nan)

    @pytest.mark.parametrize("constant", [1.0, math.inf])
    def test_level_minus_one_details_are_kept(self, constant):
        # t_{-1} = C sqrt(0) / sqrt(n) is 0 for every finite C; inf * 0 would be NaN
        rng = np.random.default_rng(33)
        raw = estimate_coefficients(rng.random((60, 2)), EstimatorConfig(wavelet_order=2, j0=-1, J=0))
        out = soft_threshold(raw, constant)
        assert all(np.isfinite(dense).all() for _, dense in out.blocks.values())
        assert {(j, q) for j, q in raw.blocks if q and j == -1} == {(-1, 1), (-1, 2), (-1, 3)}
        level = {key: val for key, val in raw.entries.items() if key.level == -1}
        assert {key: val for key, val in out.entries.items() if key.level == -1} == level
        # every level-0 detail goes at C = inf
        assert constant < math.inf or all(q == 0 for j, q in out.blocks if j == 0)

    def test_level_below_minus_one_rejected(self):
        cs = make_set({BasisIndex(-2, (0,), 1): 0.5}, j0=-2, J=-2, n=25)
        with pytest.raises(ValueError, match="detail level j=-2"):
            soft_threshold(cs, 1.0)
        assert soft_threshold(cs, 0.0) is cs


class TestFilterBank:
    def test_trend_only_comes_back_unchanged(self):
        cs = make_set({BasisIndex(0, (0,), 0): 1.0, BasisIndex(0, (2,), 0): -0.5}, J=-1)
        assert oracle.single_trend_set(cs) == cs

    def test_haar_analysis_hand_example(self):
        a, b = 1.7, -0.4
        fine = make_set(
            {BasisIndex(1, (0,), 0): a, BasisIndex(1, (1,), 0): b},
            j0=1, J=0,
        )
        out = dilation_coefficients(fine)
        assert out.entries[BasisIndex(0, (0,), 0)] == pytest.approx((a + b) / math.sqrt(2), abs=1e-14)
        assert out.entries[BasisIndex(0, (0,), 1)] == pytest.approx((a - b) / math.sqrt(2), abs=1e-14)
        assert (out.j0, out.J) == (0, 0)

    def test_direct_equals_filtered_db2(self):
        rng = np.random.default_rng(5)
        pts = rng.random((150, 2))
        direct = estimate_coefficients(
            pts, EstimatorConfig(wavelet_order=2, j0=2, J=2, k=1, normalize=False)
        )
        fine = estimate_coefficients(
            pts, EstimatorConfig(wavelet_order=2, j0=3, J=2, k=1, normalize=False)
        )
        filtered = dilation_coefficients(fine)
        keys = set(direct.entries) | set(filtered.entries)
        for key in keys:
            assert abs(direct.entries.get(key, 0.0) - filtered.entries.get(key, 0.0)) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        pts = rng.random((80, 2))
        cs = estimate_coefficients(pts, EstimatorConfig(wavelet_order=2, j0=1, J=1, k=1, normalize=False))
        back = dilation_coefficients(oracle.single_trend_set(cs))
        keys = set(cs.entries) | set(back.entries)
        for key in keys:
            assert abs(cs.entries.get(key, 0.0) - back.entries.get(key, 0.0)) < 1e-10

    @pytest.mark.parametrize("order", [2, 6])
    def test_direct_equals_filtered_d3_with_details(self, order):
        pts = np.random.default_rng(12).random((100, 3))
        # on axis 0 the fine block then starts at an odd translate, where the
        # lowest coarse translate takes only the last filter tap
        pts[:, 0] = 0.3 + 0.7 * pts[:, 0]
        direct = estimate_coefficients(
            pts, EstimatorConfig(wavelet_order=order, j0=1, J=1, k=1, normalize=False)
        )
        fine = estimate_coefficients(
            pts, EstimatorConfig(wavelet_order=order, j0=2, J=1, k=1, normalize=False)
        )
        filtered = dilation_coefficients(fine)
        assert {key.orientation for key in direct.entries} == set(range(8))
        for key in set(direct.entries) | set(filtered.entries):
            assert abs(direct.entries.get(key, 0.0) - filtered.entries.get(key, 0.0)) < 1e-10

    def test_level_transform_memory_is_bounded(self):
        # a tensor filter over cells x 12**3 taps would peak at hundreds of MiB here
        pts = np.random.default_rng(13).random((60, 3))
        single = estimate_coefficients(pts, EstimatorConfig(wavelet_order=6, j0=1, J=0, k=1, normalize=False))
        _, analysis_peak = traced_peak(lambda: dilation_coefficients(single))
        assert analysis_peak < 16 << 20

    def test_dilation_requires_single_trend(self):
        with pytest.raises(ValueError):
            dilation_coefficients(make_set({BasisIndex(0, (0,), 0): 1.0}))


class TestBasisLookup:
    def test_every_path_shares_one_cached_family(self, tmp_path):
        # functools.lru_cache keys cached_family(6) and cached_family(6, 10)
        # apart, so one stray spelling would build the db6 tables twice
        pts = np.random.default_rng(16).random((64, 2))
        config = EstimatorConfig(wavelet_order=6, j0=0, J=1, k=1)
        cached_family.cache_clear()
        model = fit_model(pts, config)
        fit_classical(pts, config).density(pts)
        path = tmp_path / "model.json"
        write_coefficients(path, model.coefficients)
        model_from_file(path)[0].density(pts)
        dilation_coefficients(estimate_coefficients(pts, EstimatorConfig(wavelet_order=6, j0=2, J=1, k=1)))
        sweep = BenchmarkConfig(
            densities=("uniform",), sample_sizes=(64,), replications=1,
            J_values=(1,), k_values=(1,), grid_resolution=16,
        )
        assert not run_benchmark(sweep).failed
        assert cached_family.cache_info().currsize == 1


class TestTruncateDetails:
    def test_equals_direct_fit(self):
        rng = np.random.default_rng(9)
        pts = rng.random((150, 2))
        full = estimate_coefficients(pts, EstimatorConfig(wavelet_order=6, j0=0, J=3, k=1, normalize=False))
        direct = estimate_coefficients(pts, EstimatorConfig(wavelet_order=6, j0=0, J=1, k=1, normalize=False))
        cut = truncate_details(full, 1)
        assert cut.J == 1
        assert cut.entries == direct.entries

    def test_bounds(self):
        cs = make_set({BasisIndex(0, (0,), 0): 1.0}, J=1)
        with pytest.raises(ValueError):
            truncate_details(cs, 2)


class TestReconstruction:
    def test_constant_model(self):
        cs = make_set({BasisIndex(0, (0, 0), 0): 1.0}, d=2)
        model = DensityModel(cs)
        pts = np.array([[0.1, 0.9], [0.5, 0.5], [0.99, 0.01]])
        np.testing.assert_array_equal(model.reconstruct(pts), 1.0)
        assert model.reconstruct([[0.3, 0.3]])[0] == 1.0

    def test_empty_model_is_zero(self):
        model = DensityModel(make_set({}, d=2))
        assert model.reconstruct([[0.5, 0.5]])[0] == 0.0

    def test_hand_model_value(self):
        with pytest.warns(UserWarning):
            model = fit_model(HAND_POINTS, haar_trend_config())
        assert model.reconstruct([[0.5]])[0] == pytest.approx(HAND_ALPHA, abs=1e-12)
        assert model.density([[0.5]])[0] == pytest.approx(HAND_ALPHA**2, abs=1e-12)

    def test_density_is_square(self):
        cs = make_set({BasisIndex(0, (0,), 0): -0.3})
        model = DensityModel(cs)
        assert model.density([[0.5]])[0] == pytest.approx(0.09, abs=1e-15)

    def test_uniform_normalized_density_is_one(self):
        rng = np.random.default_rng(10)
        pts = rng.random((64, 2))
        model = fit_model(pts, EstimatorConfig(wavelet_order=1, j0=0, J=-1, k=1))
        grid_pts = rng.random((50, 2))
        np.testing.assert_allclose(model.density(grid_pts), 1.0, atol=1e-12)

    def test_density_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        pts = rng.random((300, 2))
        model = fit_model(pts, EstimatorConfig(wavelet_order=6, j0=0, J=2, k=1))
        probe = rng.random((2000, 2)) * 1.4 - 0.2
        assert np.min(model.density(probe)) >= 0.0

    def test_grid_mass_matches_coefficient_mass(self):
        # quadrature over the full basis support agrees with the
        # coefficient-space mass (orthonormality, dual-route check)
        rng = np.random.default_rng(16)
        pts = np.sort(rng.random(200))[:, None]
        model = fit_model(pts, EstimatorConfig(wavelet_order=2, j0=0, J=1, k=1))
        res = 4096
        lo, hi = -3.0, 4.0
        axis = lo + (np.arange(res) + 0.5) * (hi - lo) / res
        total = model.density_on_axes([axis]).sum() * (hi - lo) / res
        assert abs(total - 1.0) < 1e-3

    def test_fit_pipeline_threshold_then_normalize(self):
        rng = np.random.default_rng(12)
        pts = rng.random((200, 2))
        model = fit_model(
            pts, EstimatorConfig(wavelet_order=2, j0=0, J=2, k=1, threshold_constant=0.5)
        )
        assert normalization_mass(model.coefficients) == pytest.approx(1.0, abs=1e-10)
        raw = estimate_coefficients(
            pts, EstimatorConfig(wavelet_order=2, j0=0, J=2, k=1, normalize=False)
        )
        # thresholding dropped at least one detail entry before normalization
        assert len(model.coefficients.entries) < len(raw.entries)


def oracle_reconstruct(model, pts):
    """Sum of c * tensor_basis_at over every stored entry, point by point."""
    entries = model.coefficients.entries.items()
    return np.array(
        [sum(val * tensor_basis_at(model.family, key, x) for key, val in entries) for x in pts]
    )


def probe_points(rng, d):
    """Points off the dyadic grid, on dyadic cell edges (including the unit
    cube's faces), and outside the unit cube."""
    off_grid = rng.random((6, d))
    edges = rng.choice([0.0, 0.125, 0.25, 0.5, 0.75, 1.0], size=(6, d))
    outside = rng.random((4, d))
    outside[np.arange(4), np.arange(4) % d] = [-0.4, -1e-9, 1.3, 7.0]
    return np.vstack([off_grid, edges, outside])


def assert_matches_oracle(model, pts):
    expected = oracle_reconstruct(model, pts)
    scale = np.max(np.abs(expected))
    assert scale > 0.0
    np.testing.assert_allclose(model.reconstruct(pts), expected, rtol=0, atol=1e-12 * scale)


# (d, wavelet order, J): every d in 1..3 with db1, db2 and db6, at levels that
# keep the scalar oracle quick
ORACLE_CASES = [
    (1, 1, 2), (1, 2, 2), (1, 6, 1),
    (2, 1, 1), (2, 2, 1), (2, 6, 0),
    (3, 1, 0), (3, 2, 0), (3, 6, -1),
]


class TestPointReconstructionOracle:
    @pytest.mark.parametrize("d, order, J", ORACLE_CASES)
    def test_raw_model(self, d, order, J):
        rng = np.random.default_rng(100 + 10 * d + order)
        cfg = EstimatorConfig(wavelet_order=order, j0=0, J=J, k=1, normalize=False)
        raw = estimate_coefficients(rng.random((120, d)), cfg)
        assert_matches_oracle(DensityModel(raw), probe_points(rng, d))

    @pytest.mark.parametrize("d, order, J", [case for case in ORACLE_CASES if case[2] >= 0])
    def test_thresholded_model(self, d, order, J):
        rng = np.random.default_rng(200 + 10 * d + order)
        cfg = EstimatorConfig(wavelet_order=order, j0=0, J=J, k=1, threshold_constant=1.0)
        pts = rng.random((120, d))
        model = fit_model(pts, cfg)
        assert len(model.coefficients.entries) < len(estimate_coefficients(pts, cfg).entries)
        assert_matches_oracle(model, probe_points(rng, d))

    @pytest.mark.parametrize("d, order, J", [(1, 2, 1), (2, 6, 0), (3, 2, 0)])
    def test_classical_model(self, d, order, J):
        rng = np.random.default_rng(300 + 10 * d + order)
        model = fit_classical(rng.random((120, d)), EstimatorConfig(wavelet_order=order, j0=0, J=J, k=1))
        pts = probe_points(rng, d)
        assert_matches_oracle(model, pts)
        np.testing.assert_array_equal(model.density(pts), model.reconstruct(pts))

    @pytest.mark.parametrize("d, order", [(2, 2), (2, 6), (3, 1), (3, 6)])
    def test_ragged_blocks_with_lone_entries(self, d, order):
        # hand-made sparse blocks: an L-shaped trend block, a 1x..x1 detail
        # block, and a detail block with holes at a finer level
        rng = np.random.default_rng(400 + 10 * d + order)
        entries = {BasisIndex(0, (0,) * d, 0): 0.7, BasisIndex(0, (-1,) + (0,) * (d - 1), 0): -0.2}
        entries[BasisIndex(0, (0,) * (d - 1) + (-2,), 0)] = 0.4
        entries[BasisIndex(0, (-1,) * d, 1)] = 0.3
        for z in [(0,) * d, (1,) * d, (-2,) + (1,) * (d - 1)]:
            entries[BasisIndex(1, z, (1 << d) - 1)] = float(rng.normal())
        model = DensityModel(make_set(entries, d=d, wavelet_order=order, J=1))
        shapes = sorted(dense.shape for _, dense in model.coefficients.blocks.values())
        assert (1,) * d in shapes
        assert_matches_oracle(model, probe_points(rng, d))


class TestPointPathAgreement:
    def test_cell_centres_match_grid_path(self):
        rng = np.random.default_rng(17)
        model = fit_model(rng.random((300, 2)), EstimatorConfig(wavelet_order=6, j0=0, J=2, k=1))
        centres = (np.arange(16) + 0.5) / 16
        grid = model.reconstruct_on_axes([centres, centres])
        mesh = np.stack(np.meshgrid(centres, centres, indexing="ij"), axis=-1).reshape(-1, 2)
        scale = np.max(np.abs(grid))
        np.testing.assert_allclose(
            model.reconstruct(mesh).reshape(16, 16), grid, rtol=0, atol=1e-12 * scale
        )

    def test_chunked_input_matches_pieces(self, monkeypatch):
        rng = np.random.default_rng(18)
        model = fit_model(rng.random((300, 2)), EstimatorConfig(wavelet_order=2, j0=0, J=2, k=1))
        pts = rng.random((50, 2)) * 1.2 - 0.1
        whole = model.reconstruct(pts)
        # the row rule of reconstruct, inverted: 7 rows per chunk for the widest
        # block, a few more for the others
        widest = max(
            sum(s) + 4 * max(s) + sum(math.prod(s[a:]) for a in range(1, len(s) + 1))
            for s in (dense.shape for _, dense in model.coefficients.blocks.values())
        )
        monkeypatch.setattr(estimator, "_CHUNK_BYTES", 8 * widest * 7)
        chunked = model.reconstruct(pts)
        pieces = np.concatenate([model.reconstruct(pts[i : i + 7]) for i in range(0, 50, 7)])
        scale = np.max(np.abs(whole))
        np.testing.assert_allclose(chunked, pieces, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("d, order, J", [(1, 6, 3), (2, 6, 3), (3, 2, 1)])
    def test_density_memory_stays_within_the_chunk_budget(self, d, order, J):
        # each block's chunk counts its interpolation scratch; one row count
        # for every block, from the factor columns alone, peaked at 6.8 MiB (d = 1)
        rng = np.random.default_rng(19)
        cfg = EstimatorConfig(wavelet_order=order, j0=0, J=J, k=1, threshold_constant=1.0)
        model = fit_model(rng.random((2048, d)), cfg)
        pts = rng.random((20_000, d))
        f, peak = traced_peak(lambda: model.density(pts))
        assert peak < 1.25 * estimator._CHUNK_BYTES + 3 * f.nbytes


class TestScatter:
    @pytest.mark.parametrize("estimate", [estimate_coefficients, classical_coefficients])
    @pytest.mark.parametrize("order", [1, 2, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chunked_sums_are_bit_exact(self, monkeypatch, d, order, estimate):
        pts = np.random.default_rng(30 + d).random((97, d))
        cfg = EstimatorConfig(wavelet_order=order, j0=0, J=1, k=1)
        whole = estimate(pts, cfg).entries
        # one row per chunk, a few rows, and many rows; 97 is prime, so chunks end ragged
        for budget in (1, 4096, 65536):
            monkeypatch.setattr(estimator, "_CHUNK_BYTES", budget)
            chunked = estimate(pts, cfg).entries
            assert list(chunked) == list(whole)
            assert all(chunked[key] == val for key, val in whole.items())

    @pytest.mark.parametrize("classical", [False, True])
    @pytest.mark.parametrize(
        "d, order, J",
        [(1, 1, 2), (1, 2, 2), (1, 6, 2), (2, 1, 1), (2, 2, 1), (2, 6, 1), (3, 1, 1), (3, 2, 1), (3, 6, -1)],
    )
    def test_sums_match_scalar_oracle(self, d, order, J, classical):
        n = 6
        pts = np.random.default_rng(40 + d).random((n, d))
        cfg = EstimatorConfig(wavelet_order=order, j0=0, J=J, k=1)
        family = cached_family(order, 10)
        r = family.dyadic_resolution
        snapped = np.ldexp(estimator.snap_to_dyadic(pts).astype(float), -r)
        if classical:
            coeffs = classical_coefficients(pts, cfg)
            weights = np.full(n, 1.0 / n)
        else:
            coeffs = estimate_coefficients(pts, cfg)
            weights = consistency_factor(1) / math.sqrt(n) * np.sqrt(radii_and_volumes(pts, 1)[1])
        blocks = [(0, 0)] + [(j, q) for j in range(0, J + 1) for q in range(1, 1 << d)]
        keys = set(coeffs.entries)
        for x in snapped:
            for j, q in blocks:
                keys.update(BasisIndex(j, z, q) for z in supported_translates(family, j, x, d))
        assert {(key.level, key.orientation) for key in keys} == set(blocks)
        scale = max(abs(val) for val in coeffs.entries.values())
        for key in keys:
            oracle = sum(w * tensor_basis_at(family, key, x) for w, x in zip(weights, snapped))
            assert abs(coeffs.entries.get(key, 0.0) - oracle) <= 1e-12 * scale, key

    def test_fit_memory_is_bounded(self):
        # full-size (n, d, 11**3) index and value arrays would peak at 512 MiB here
        pts = np.random.default_rng(5).random((5000, 3))
        _, peak = traced_peak(lambda: fit_model(pts, EstimatorConfig(wavelet_order=6, j0=0, J=0, k=1)))
        assert peak < 160 * 2**20

    def test_large_n_fit_memory_is_bounded(self):
        # the scatter's chunks stay within the chunk byte budget; a 64 MiB
        # budget peaked at 45 MiB on this input
        pts = np.random.default_rng(14).random((20_000, 2))
        config = EstimatorConfig(wavelet_order=6, j0=0, J=3, k=1)
        cached_family(6, 10)  # the tables are not part of the fit's peak
        _, peak = traced_peak(lambda: fit_model(pts, config))
        assert peak < 8 << 20

    def test_fit_holds_one_weight_array_besides_the_tree(self):
        # during the k-NN query a fit holds the tree's index and the radii,
        # which become the weights in place; during the scatter, the weights
        # and the chunk budget.  Separate radii, volumes and weights peaked
        # at 24 bytes per point here
        n = 200_000
        pts = np.random.default_rng(16).random((n, 2))
        config = EstimatorConfig(wavelet_order=6, j0=0, J=3, k=1)
        cached_family(6, 10)
        _, peak = traced_peak(lambda: fit_model(pts, config))
        assert peak < 16 * n + estimator._CHUNK_BYTES

    def test_fit_never_snaps_all_points_at_once(self, monkeypatch):
        # an (n, d) int64 array of snapped points, and its float copies, grow
        # with n; each scatter chunk snaps its own points instead
        rows = []
        snap = estimator.snap_to_dyadic

        def recording(points):
            rows.append(len(points))
            return snap(points)

        monkeypatch.setattr(estimator, "snap_to_dyadic", recording)
        # the father scatter's chunks hold 1 323 points of a 2-D db6 sample
        pts = np.random.default_rng(15).random((8000, 2))
        config = EstimatorConfig(wavelet_order=6, j0=0, J=1, k=1)
        fit_model(pts, config)
        estimate_coefficients(pts, config)
        classical_coefficients(pts, config)
        assert rows and max(rows) < len(pts) // 4


class TestRescaleToDomain:
    def test_exact_box_is_identity(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.4], [0.3, 1.0]])
        out, mapping = rescale_to_domain(pts)
        np.testing.assert_array_equal(out, pts)
        np.testing.assert_array_equal(mapping.scale, 1.0)
        np.testing.assert_array_equal(mapping.offset, 0.0)

    def test_interval_example(self):
        out, mapping = rescale_to_domain(np.array([[0.0], [10.0]]))
        np.testing.assert_allclose(out.ravel(), [0.0, 1.0])
        assert mapping.jacobian == pytest.approx(0.1, abs=1e-15)

    def test_degenerate_axis(self):
        with pytest.raises(DataError):
            rescale_to_domain(np.array([[1.0, 0.2], [1.0, 0.8]]))

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(5.0, 3.0, size=(40, 2))
        out, mapping = rescale_to_domain(pts, padding=0.05)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        np.testing.assert_allclose(mapping.inverse(out), pts, atol=1e-12)

    def test_an_edge_that_rounds_past_one_is_clipped(self):
        pts = np.random.default_rng(0).random((500, 2))
        pts[:, 1] *= 1e6
        out, mapping = rescale_to_domain(pts)
        # the affine record keeps its bits; only a point past an edge moves
        raw = pts * mapping.scale + mapping.offset
        assert raw.max() > 1.0
        assert np.all((out >= 0.0) & (out <= 1.0))
        np.testing.assert_array_equal(out, np.clip(raw, 0.0, 1.0))
        np.testing.assert_array_equal(mapping.scale, 1.0 / (pts.max(axis=0) - pts.min(axis=0)))

    @pytest.mark.parametrize("padding", [-0.6, float("nan"), float("inf")])
    def test_padding_must_be_finite_and_nonnegative(self, padding):
        with pytest.raises(ValueError, match="padding must be a finite number >= 0"):
            rescale_to_domain(np.array([[0.0], [1.0]]), padding=padding)

    def test_back_transformed_density_integrates_to_one(self):
        rng = np.random.default_rng(14)
        raw = rng.normal(50.0, 12.0, size=(400, 2))
        pts, mapping = rescale_to_domain(raw)
        model = fit_model(pts, EstimatorConfig(wavelet_order=2, j0=0, J=1, k=1))
        # integrate f(x) = f_model(forward(x)) * jacobian over the data box
        res = 128
        lo = raw.min(axis=0)
        hi = raw.max(axis=0)
        axes = [lo[a] + (np.arange(res) + 0.5) * (hi[a] - lo[a]) / res for a in range(2)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = model.density(mapping.forward(mesh)) * mapping.jacobian
        cell = np.prod((hi - lo) / res)
        model_mass = np.sum(model.density_on_axes([(np.arange(res) + 0.5) / res] * 2)) / res**2
        assert abs(np.sum(vals) * cell - model_mass) < 1e-6


class TestCoefficientFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        pts = rng.random((150, 2))
        model = fit_model(pts, EstimatorConfig(wavelet_order=6, j0=0, J=1, k=2))
        path = tmp_path / "coeffs.json"
        write_coefficients(path, model.coefficients, provenance={"note": "test"})
        loaded, extras = read_coefficients(path)
        assert loaded.entries == model.coefficients.entries
        assert (loaded.j0, loaded.J) == (0, 1)
        assert (loaded.d, loaded.n, loaded.k) == (2, 150, 2)
        assert extras["provenance"] == {"note": "test"}
        back, _ = model_from_file(path)
        probe = rng.random((20, 2))
        np.testing.assert_array_equal(back.density(probe), model.density(probe))

    def test_values_have_17_digits(self, tmp_path):
        cs = make_set({BasisIndex(0, (0,), 0): 0.1})
        path = tmp_path / "c.json"
        write_coefficients(path, cs)
        text = path.read_text()
        assert "1.00000000000000006e-01" in text
        json.loads(text)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            read_coefficients(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"schema_version": 9, "entries": []}')
        with pytest.raises(DataError):
            read_coefficients(path)


class TestConfigValidation:
    def test_j_below_trend_only(self):
        with pytest.raises(ValueError):
            EstimatorConfig(j0=0, J=-2)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            EstimatorConfig(k=0)

    def test_threshold_nonnegative(self):
        with pytest.raises(ValueError):
            EstimatorConfig(threshold_constant=-0.5)

    def test_threshold_not_nan(self):
        with pytest.raises(ValueError, match="got nan"):
            EstimatorConfig(threshold_constant=math.nan)
        assert EstimatorConfig(threshold_constant=math.inf).threshold_constant == math.inf
