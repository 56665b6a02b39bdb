import math

import numpy as np
import pytest

import table_oracle
from basis_oracle import father_at, mother_at, refinement_coefficients, supported_translates, tensor_basis_at
from wavedens.errors import ConfigurationError
from wavedens.wavelets import (
    BasisIndex,
    _table_at,
    build_family,
    cached_family,
    daubechies_filter,
    highpass_from_lowpass,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# closed-form db2 refinement filter
DB2 = np.array([1 + SQRT3, 3 + SQRT3, 3 - SQRT3, 1 - SQRT3]) / (4 * SQRT2)


class TestFilters:
    def test_haar_filter(self):
        np.testing.assert_allclose(daubechies_filter(1), [1 / SQRT2, 1 / SQRT2])

    def test_db2_closed_form(self):
        np.testing.assert_allclose(daubechies_filter(2), DB2, atol=1e-14)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_sum_is_sqrt2(self, order):
        h = daubechies_filter(order)
        assert abs(h.sum() - SQRT2) < 1e-12

    @pytest.mark.parametrize("order", range(1, 11))
    def test_shift_orthonormality(self, order):
        h = daubechies_filter(order)
        for m in range(order):
            target = 1.0 if m == 0 else 0.0
            assert abs(np.dot(h[2 * m :], h[: h.size - 2 * m]) - target) < 1e-12

    @pytest.mark.parametrize("order", [0, -1, 11])
    def test_unsupported_order(self, order):
        with pytest.raises(ConfigurationError):
            daubechies_filter(order)

    def test_highpass_quadrature_mirror(self):
        h = daubechies_filter(2)
        g = highpass_from_lowpass(h)
        expected = [(-1) ** k * h[3 - k] for k in range(4)]
        np.testing.assert_allclose(g, expected)
        assert abs(g.sum()) < 1e-12


class TestBuildFamily:
    def test_resolution_bounds(self):
        with pytest.raises(ConfigurationError):
            build_family(2, 3)
        with pytest.raises(ConfigurationError):
            build_family(2, 17)

    def test_haar_table_is_indicator(self):
        fam = build_family(1, 8)
        assert fam.father_table.size == (1 << 8) + 1
        np.testing.assert_array_equal(fam.father_table[:-1], 1.0)
        assert fam.father_table[-1] == 0.0

    def test_db2_integer_values_match_eigen_oracle(self):
        # independent oracle: eigenvalue-1 eigenvector of the explicit 2x2
        # interior refinement matrix, normalized to sum to one
        m = SQRT2 * np.array([[DB2[1], DB2[0]], [DB2[3], DB2[2]]])
        vals, vecs = np.linalg.eig(m)
        vec = np.real(vecs[:, np.argmin(np.abs(vals - 1))])
        vec = vec / vec.sum()
        fam = cached_family(2, 10)
        got = [father_at(fam, 1.0), father_at(fam, 2.0)]
        np.testing.assert_allclose(got, vec, atol=1e-10)
        np.testing.assert_allclose(got, [(1 + SQRT3) / 2, (1 - SQRT3) / 2], atol=1e-10)

    @pytest.mark.parametrize("order", [2, 3, 6, 10])
    def test_endpoints_vanish(self, order):
        fam = cached_family(order, 10)
        assert fam.father_table[0] == 0.0
        assert fam.father_table[-1] == 0.0

    @pytest.mark.parametrize("order", range(1, 11))
    def test_partition_of_unity(self, order):
        fam = cached_family(order, 10)
        cells = 1 << fam.dyadic_resolution
        pou = np.zeros(cells)
        for z in range(fam.support_length):
            pou += fam.father_table[z * cells : z * cells + cells]
        assert np.max(np.abs(pou - 1.0)) < 1e-8

    @pytest.mark.parametrize("order", range(1, 11))
    def test_riemann_integrals(self, order):
        fam = cached_family(order, 10)
        step = 2.0 ** -fam.dyadic_resolution
        phi = fam.father_table[:-1]
        assert abs(phi.sum() * step - 1.0) < 5e-4
        assert abs((phi**2).sum() * step - 1.0) < 5e-4

    @pytest.mark.parametrize("order", range(1, 11))
    def test_vanishing_moments(self, order):
        fam = cached_family(order, 10)
        step = 2.0 ** -fam.dyadic_resolution
        x = np.arange(fam.mother_table.size - 1) * step
        psi = fam.mother_table[:-1]
        for j in range(order):
            assert abs((x**j * psi).sum() * step) < 1e-6

    @pytest.mark.parametrize("order", [1, 2, 6])
    def test_two_scale_identity_on_table(self, order):
        fam = cached_family(order, 10)
        r = fam.dyadic_resolution
        n_end = fam.father_table.size - 1
        t = np.arange(n_end + 1)
        k_scaled = np.arange(2 * order) << r
        args = 2 * t[:, None] - k_scaled[None, :]
        valid = (args >= 0) & (args <= n_end)
        vals = np.where(valid, fam.father_table[np.clip(args, 0, n_end)], 0.0)
        resid = np.abs(fam.father_table - SQRT2 * vals @ fam.lowpass)
        assert resid.max() < 1e-9


class TestEvaluation:
    def test_haar_father_values(self):
        fam = cached_family(1, 10)
        assert father_at(fam, 0.5) == 1.0
        assert father_at(fam, -0.1) == 0.0
        assert father_at(fam, 1.5) == 0.0

    def test_db2_father_at_one(self):
        fam = cached_family(2, 10)
        assert abs(father_at(fam, 1.0) - 1.3660254) < 1e-7

    def test_haar_mother_values(self):
        fam = cached_family(1, 10)
        assert mother_at(fam, 0.25) == 1.0
        assert mother_at(fam, 0.75) == -1.0

    def test_db2_mother_integrates_to_zero(self):
        fam = cached_family(2, 10)
        step = 2.0 ** -fam.dyadic_resolution
        assert abs(fam.mother_table[:-1].sum() * step) < 1e-6

    def test_father_at_vectorized_matches_scalar(self):
        fam = cached_family(2, 10)
        xs = np.linspace(-0.5, 3.5, 37)
        vec = father_at(fam, xs)
        np.testing.assert_allclose(vec, [father_at(fam, x) for x in xs])

    @pytest.mark.parametrize("order", [1, 2, 6, 10])
    def test_lookup_keeps_the_bits_of_the_expression_form(self, order):
        fam = cached_family(order, 10)
        width = fam.support_length
        rng = np.random.default_rng(order)
        edges = [0.0, -0.0, float(width), width - 2.0**-30, -(2.0**-30), np.nan, np.inf, -np.inf]
        # table points, off-table points and the support's edges
        x = np.concatenate(
            [rng.uniform(-2.0, width + 2.0, 4000), rng.integers(-2048, (width + 2) << 10, 1000) / 1024.0, edges]
        )
        for table in (fam.father_table, fam.mother_table):
            for arg in (x, x[:1000].reshape(10, 100), x[:0]):
                got, want = _table_at(table, 10, width, arg), table_oracle.table_at(table, 10, width, arg)
                assert got.shape == want.shape
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            for arg in [*x[:200].tolist(), *edges, np.float64(1.5), np.array(0.75)]:
                got, want = _table_at(table, 10, width, arg), table_oracle.table_at(table, 10, width, arg)
                assert type(got) is float
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestTensorBasis:
    def test_unit_square_indicator(self):
        fam = cached_family(1, 10)
        idx = BasisIndex(0, (0, 0), 0)
        assert tensor_basis_at(fam, idx, (0.3, 0.7)) == 1.0

    def test_level_scaling(self):
        fam = cached_family(1, 10)
        idx = BasisIndex(1, (0, 0), 0)
        assert tensor_basis_at(fam, idx, (0.1, 0.1)) == 2.0

    def test_mother_mother_orientation(self):
        fam = cached_family(1, 10)
        idx = BasisIndex(0, (0, 0), 3)
        assert tensor_basis_at(fam, idx, (0.25, 0.75)) == -1.0

    def test_dimension_mismatch(self):
        fam = cached_family(1, 10)
        with pytest.raises(ValueError):
            tensor_basis_at(fam, BasisIndex(0, (0, 0), 0), (0.5,))

    def test_univariate_father_consistency(self):
        fam = cached_family(2, 10)
        for j, z, x in [(0, -1, 0.37), (2, 1, 0.61), (3, 5, 0.88)]:
            expected = 2.0 ** (j / 2.0) * father_at(fam, (2.0**j) * x - z)
            assert tensor_basis_at(fam, BasisIndex(j, (z,), 0), (x,)) == expected


class TestSupportedTranslates:
    def test_haar_center(self):
        fam = cached_family(1, 10)
        assert supported_translates(fam, 0, (0.5, 0.5), 2) == [(0, 0)]

    def test_db2_univariate(self):
        fam = cached_family(2, 10)
        assert supported_translates(fam, 0, 0.5, 1) == [(-2,), (-1,), (0,)]

    def test_haar_level_two(self):
        fam = cached_family(1, 10)
        assert supported_translates(fam, 2, (0.3, 0.6), 2) == [(1, 2)]

    @pytest.mark.parametrize("order", [1, 2, 6])
    def test_no_false_negatives_on_grid(self, order):
        fam = cached_family(order, 10)
        xs = (np.arange(17) + 0.5) / 17.0
        for j in (0, 1, 2):
            for x in xs:
                zs = supported_translates(fam, j, x, 1)
                lo = math.floor(2.0**j * x) - (fam.support_length - 1) - 1
                hi = math.floor(2.0**j * x) + 1
                for z in range(lo, hi + 1):
                    val = tensor_basis_at(fam, BasisIndex(j, (z,), 0), (x,))
                    if val != 0.0:
                        assert (z,) in zs

    def test_haar_lattice_point_included(self):
        # the Haar father is 1 at the left support endpoint
        fam = cached_family(1, 10)
        assert supported_translates(fam, 1, 0.5, 1) == [(1,)]
        assert tensor_basis_at(fam, BasisIndex(1, (1,), 0), (0.5,)) == SQRT2


class TestRefinementCoefficients:
    def test_haar_univariate(self):
        fam = cached_family(1, 10)
        coeffs = refinement_coefficients(fam, 1, 0)
        assert set(coeffs) == {(0,), (1,)}
        np.testing.assert_allclose(sorted(coeffs.values()), [1 / SQRT2, 1 / SQRT2])

    def test_haar_bivariate_father(self):
        fam = cached_family(1, 10)
        coeffs = refinement_coefficients(fam, 2, 0)
        assert len(coeffs) == 4
        np.testing.assert_allclose(list(coeffs.values()), 0.5)

    @pytest.mark.parametrize("order,d", [(1, 1), (2, 2), (6, 2)])
    def test_unit_energy_each_orientation(self, order, d):
        fam = cached_family(order, 10)
        for q in range(1 << d):
            total = sum(v * v for v in refinement_coefficients(fam, d, q).values())
            assert abs(total - 1.0) < 1e-12

    def test_orientation_out_of_range(self):
        fam = cached_family(1, 10)
        with pytest.raises(ValueError):
            refinement_coefficients(fam, 2, 4)

