import math

import numpy as np
import pytest

import dict_oracle as oracle
from heap import traced_peak
from wavedens.errors import BudgetError
from wavedens.estimator import DensityModel, EstimatorConfig, fit_model
from wavedens.metrics import Field, GridSpec, grid_eval, ise, mass, mise_aggregate, negative_mass
from wavedens.wavelets import BasisIndex


def const_field(value, resolution=4, d=2):
    grid = GridSpec.unit(d, resolution)
    return Field(grid=grid, values=np.full((resolution,) * d, float(value)))


class TestGridSpec:
    def test_cell_volume(self):
        grid = GridSpec.from_box([[0.0, 2.0], [0.0, 1.0]], 8)
        assert grid.cell_volume == pytest.approx(2.0 / 64.0)

    def test_cell_centers_order_and_values(self):
        grid = GridSpec.unit(2, 2)
        np.testing.assert_allclose(
            grid.cell_centers(),
            [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]],
        )

    @pytest.mark.parametrize("box", [[[0.0, 1.0]], [[0.0, 2.0], [-1.0, 0.5]], [[0.0, 1.0], [0.1, 0.2], [3.0, 7.0]]])
    def test_cell_centers_are_the_meshgrid(self, box):
        grid = GridSpec.from_box(box, 5)
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        np.testing.assert_array_equal(grid.cell_centers(), np.stack([m.ravel() for m in mesh], axis=-1))

    def test_cell_centers_hold_one_array(self):
        grid = GridSpec.unit(2, 128)
        centers, peak = traced_peak(grid.cell_centers)
        assert centers.nbytes == 0.25 * 2**20
        assert peak <= 1.1 * centers.nbytes

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec.unit(2, 1)
        with pytest.raises(ValueError):
            GridSpec.from_box([[1.0, 0.0]], 4)

    @pytest.mark.parametrize(
        "box, resolution",
        [
            ([[0.0, math.nan], [0.0, 1.0]], 4),
            ([[math.nan, 1.0]], 4),
            ([[0.0, math.inf], [0.0, 1.0]], 4),
            ([[-math.inf, 0.0]], 4),
            ([[-1e308, 1e308]], 4),
            ([[0.5, 0.5]], 4),
            ([[0.0, 1.0], [0.0, 1.0]], 16.5),
            ([[0.0, 1.0]], 8.0),
            ([[0.0, 1.0]], "8"),
        ],
        ids=["nan-high", "nan-low", "inf-high", "inf-low", "infinite-length", "empty", "fraction", "float", "text"],
    )
    def test_a_grid_it_cannot_walk_is_refused(self, box, resolution):
        with pytest.raises(ValueError):
            GridSpec.from_box(box, resolution)

    def test_numpy_integer_resolution_is_valid(self):
        assert GridSpec.unit(3, np.int32(256)).cells == 256**3

    def test_a_grid_past_the_budget_is_refused_before_it_allocates(self):
        assert GridSpec.unit(2, 4096).cells == 2**24

        def make():
            with pytest.raises(BudgetError, match="a 4097\\^2 grid holds 16785409 cells, past the budget of 16777216"):
                grid_eval(lambda pts: pts[:, 0], GridSpec.unit(2, 4097))

        _, peak = traced_peak(make)
        assert peak < 2**20
        # counted in Python integers: 2^64 cells wrap to 0 in int64
        with pytest.raises(BudgetError, match="holds 18446744073709551616 cells"):
            GridSpec.unit(2, np.int64(2**32))


class TestGridEval:
    def test_constant_callable(self):
        field = grid_eval(lambda pts: np.ones(pts.shape[0]), GridSpec.unit(2, 4))
        assert field.values.shape == (4, 4)
        np.testing.assert_array_equal(field.values, 1.0)

    def test_haar_trend_model_is_piecewise_constant(self):
        coeffs = oracle.coefficient_set(
            {BasisIndex(1, (0, 0), 0): 1.0},
            d=2, n=1, k=1, j0=1, J=0, wavelet_order=1,
            normalized=False,
        )
        field = grid_eval(DensityModel(coeffs), GridSpec.unit(2, 8))
        # support is the lower-left quadrant; value (2^(d j/2))^2 = 4
        np.testing.assert_array_equal(field.values[:4, :4], 4.0)
        assert np.all(field.values[4:, :] == 0.0)
        assert np.all(field.values[:, 4:] == 0.0)

    def test_model_fast_path_matches_callable_path(self):
        rng = np.random.default_rng(0)
        model = fit_model(rng.random((100, 2)), EstimatorConfig(wavelet_order=2, j0=0, J=1))
        grid = GridSpec.unit(2, 16)
        fast = grid_eval(model, grid)
        slow = grid_eval(lambda pts: model.density(pts), grid)
        np.testing.assert_allclose(fast.values, slow.values, atol=1e-12)


class TestMass:
    def test_uniform_examples(self):
        assert mass(const_field(1.0)) == pytest.approx(1.0)
        assert mass(const_field(2.0)) == pytest.approx(2.0)

    def test_half_and_half(self):
        grid = GridSpec.unit(2, 2)
        values = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert mass(Field(grid=grid, values=values)) == pytest.approx(1.0)


class TestIse:
    def test_identical_is_zero(self):
        assert ise(const_field(1.0), const_field(1.0)) == 0.0

    def test_zero_vs_one(self):
        assert ise(const_field(0.0), const_field(1.0)) == pytest.approx(1.0)

    def test_offset(self):
        assert ise(const_field(1.5), const_field(1.0)) == pytest.approx(0.25)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        grid = GridSpec.unit(2, 8)
        a = Field(grid=grid, values=rng.random((8, 8)))
        b = Field(grid=grid, values=rng.random((8, 8)))
        assert ise(a, b) == ise(b, a)
        assert ise(a, b) > 0.0

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            ise(const_field(1.0, resolution=4), const_field(1.0, resolution=8))

    def test_refinement_convergence(self):
        # smooth pair: the discretized ISE settles as the grid refines
        def f(pts):
            return np.sin(2 * math.pi * pts[:, 0]) * np.cos(math.pi * pts[:, 1]) + 1.2

        def g(pts):
            return 1.2 + 0.5 * pts[:, 0] * pts[:, 1]

        vals = []
        for res in (32, 64, 128):
            grid = GridSpec.unit(2, res)
            vals.append(ise(grid_eval(f, grid), grid_eval(g, grid)))
        assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1])


class TestNegativeMass:
    def test_nonnegative_field(self):
        assert negative_mass(const_field(0.3)) == 0.0

    def test_single_negative_cell(self):
        grid = GridSpec.unit(2, 2)
        values = np.array([[-1.0, 0.0], [0.0, 0.0]])
        assert negative_mass(Field(grid=grid, values=values)) == pytest.approx(-0.25)

    def test_shape_preserving_model_has_zero(self):
        rng = np.random.default_rng(2)
        model = fit_model(rng.random((150, 2)), EstimatorConfig(wavelet_order=6, j0=0, J=2))
        assert negative_mass(grid_eval(model, GridSpec.unit(2, 64))) == 0.0


class TestMiseAggregate:
    def test_constant_list(self):
        assert mise_aggregate([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_two_values(self):
        mean, se = mise_aggregate([0.0, 2.0])
        assert mean == pytest.approx(1.0)
        assert se == pytest.approx(1.0)

    def test_singleton_flags_undefined(self):
        mean, se = mise_aggregate([0.7])
        assert mean == 0.7
        assert math.isnan(se)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mise_aggregate([])
