import numpy as np
import pytest

import dict_oracle as oracle
from heap import traced_peak
from wavedens.classical import (
    classical_coefficients,
    fit_classical,
    rescale_classical,
)
from wavedens.errors import DegenerateModelError, EstimationError
from wavedens.estimator import (
    DensityModel,
    EstimatorConfig,
    density_at,
    estimate_coefficients,
    fit_model,
)
from wavedens.metrics import GridSpec, grid_eval, mass, negative_mass
from wavedens.wavelets import BasisIndex, cached_family


def haar_config(**kw):
    defaults = dict(wavelet_order=1, j0=0, J=-1, k=1)
    defaults.update(kw)
    return EstimatorConfig(**defaults)


# clustered fixture on which the classical estimator goes negative
def witness_points():
    rng = np.random.default_rng(314159)
    pts = 0.5 + 0.06 * rng.standard_normal((200, 2))
    return pts[np.all((pts > 0) & (pts < 1), axis=1)][:150]


class TestClassicalCoefficients:
    def test_trend_average_is_one(self):
        rng = np.random.default_rng(0)
        pts = rng.random((40, 2))
        coeffs = classical_coefficients(pts, haar_config())
        assert coeffs.kind == "classical"
        assert coeffs.entries == {BasisIndex(0, (0, 0), 0): 1.0}

    @pytest.mark.parametrize("outside", [1.5, -1e-12])
    def test_outside_unit_cube_mentions_rescale(self, outside):
        pts = np.array([[0.5, 0.5], [outside, 0.5], [0.2, 0.8]])
        with pytest.raises(EstimationError, match="rescale"):
            classical_coefficients(pts, haar_config())

    @pytest.mark.parametrize("estimate", [classical_coefficients, estimate_coefficients])
    def test_points_on_the_faces_are_inside(self, estimate):
        # the corners and the edge midpoints of the unit square, plus two interior points
        pts = np.array([[x, y] for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)] + [[0.2, 0.3]])
        coeffs = estimate(pts, EstimatorConfig(wavelet_order=2, j0=0, J=0, k=1))
        assert coeffs.entries

    def test_single_point_level_two(self):
        coeffs = classical_coefficients(np.array([[0.3, 0.6]]), haar_config(j0=2, J=1))
        trend = {key: val for key, val in coeffs.entries.items() if key.orientation == 0}
        assert trend == {BasisIndex(2, (1, 2), 0): 4.0}  # 2^(d*j/2) / n

    def test_no_details_when_trend_only(self):
        rng = np.random.default_rng(1)
        coeffs = classical_coefficients(rng.random((30, 2)), haar_config())
        assert all(key.orientation == 0 for key in coeffs.entries)

    def test_empty_sample_rejected(self):
        with pytest.raises(EstimationError):
            classical_coefficients(np.empty((0, 2)), haar_config())


class TestClassicalDensity:
    def test_uniform_trend_only_is_one(self):
        rng = np.random.default_rng(2)
        model = fit_classical(rng.random((64, 2)), haar_config())
        assert density_at(model, (0.4, 0.9)) == 1.0

    def test_density_matches_linear_reconstruction(self):
        model = fit_classical(witness_points(), haar_config(wavelet_order=6, J=2))
        pts = np.array([[0.2, 0.2], [0.5, 0.5]])
        np.testing.assert_array_equal(model.density(pts), model.reconstruct(pts))

    def test_negativity_witness(self):
        cfg = haar_config(wavelet_order=6, J=2)
        grid = GridSpec.unit(2, 128)
        classical_field = grid_eval(fit_classical(witness_points(), cfg), grid)
        assert classical_field.values.min() < 0.0
        assert negative_mass(classical_field) < 0.0
        sp_field = grid_eval(fit_model(witness_points(), cfg), grid)
        assert negative_mass(sp_field) == 0.0
        assert sp_field.values.min() >= 0.0

    def test_trend_only_mass_near_one(self):
        rng = np.random.default_rng(3)
        model = fit_classical(rng.random((128, 2)), haar_config())
        assert mass(grid_eval(model, GridSpec.unit(2, 64))) == pytest.approx(1.0, abs=1e-12)


class TestRescaleClassical:
    def test_halves_density(self):
        coeffs = oracle.coefficient_set(
            {BasisIndex(0, (0, 0), 0): 2.0},
            d=2, n=4, k=1, j0=0, J=-1, wavelet_order=1,
            normalized=False, kind="classical",
        )
        model = DensityModel(coeffs)
        grid = GridSpec.unit(2, 32)
        rescaled = rescale_classical(model, grid)
        assert density_at(rescaled, (0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)
        assert mass(grid_eval(rescaled, grid)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_mass_unchanged(self):
        rng = np.random.default_rng(4)
        model = fit_classical(rng.random((64, 2)), haar_config())
        rescaled = rescale_classical(model, GridSpec.unit(2, 32))
        probe = rng.random((10, 2))
        np.testing.assert_allclose(rescaled.density(probe), model.density(probe), atol=1e-12)

    def test_rescaled_witness_has_unit_grid_mass(self):
        grid = GridSpec.unit(2, 128)
        model = fit_classical(witness_points(), haar_config(wavelet_order=6, J=2))
        rescaled = rescale_classical(model, grid)
        assert mass(grid_eval(rescaled, grid)) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_mass_rejected(self):
        coeffs = oracle.coefficient_set(
            {BasisIndex(0, (0, 0), 0): -1.0},
            d=2, n=4, k=1, j0=0, J=-1, wavelet_order=1,
            normalized=False, kind="classical",
        )
        with pytest.raises(DegenerateModelError):
            rescale_classical(DensityModel(coeffs), GridSpec.unit(2, 16))


class TestAgreementWithShapePreserving:
    def test_haar_trend_only_uniform_coincide(self):
        rng = np.random.default_rng(5)
        pts = rng.random((100, 2))
        grid = GridSpec.unit(2, 32)
        sp = grid_eval(fit_model(pts, haar_config()), grid)
        cl = grid_eval(rescale_classical(fit_classical(pts, haar_config()), grid), grid)
        np.testing.assert_allclose(sp.values, 1.0, atol=1e-12)
        np.testing.assert_allclose(cl.values, 1.0, atol=1e-12)


def test_classical_fit_holds_no_per_point_weights():
    # the all-ones weights are a broadcast view; a (1, n) array of ones
    # peaked at 14.6 bytes per point here, the view at 6.6 (one level, as
    # the weights do not depend on J)
    n = 200_000
    pts = np.random.default_rng(17).random((n, 2))
    config = EstimatorConfig(wavelet_order=6, j0=0, J=0, k=1)
    cached_family(6, 10)
    _, peak = traced_peak(lambda: classical_coefficients(pts, config))
    assert peak < 10 * n
