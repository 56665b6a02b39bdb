"""Property tests over small random samples in one and two dimensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavedens.estimator import (
    EstimatorConfig,
    estimate_coefficients,
    fit_model,
    normalization_mass,
    read_coefficients,
    write_coefficients,
)

pytestmark = pytest.mark.filterwarnings("ignore::wavedens.errors.KConsistencyWarning")

# derandomized, so every process runs the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)


@st.composite
def fits(draw):
    """Distinct points in the unit cube (duplicates would have zero volume)
    and a configuration with j0 = 0."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 40))
    coords = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    points = draw(hnp.arrays(float, (n, d), elements=coords, unique=True))
    config = EstimatorConfig(
        wavelet_order=draw(st.sampled_from([1, 2, 4])),
        j0=0,
        J=draw(st.integers(-1, 2)),
        k=draw(st.integers(1, 2)),
    )
    return points, config


@PROPERTY
@given(fits(), hnp.arrays(float, (16, 2), elements=st.floats(-0.5, 1.5)))
def test_density_is_finite_and_nonnegative(fit, queries):
    points, config = fit
    model = fit_model(points, config)
    f = model.density(np.concatenate([points, queries[:, : points.shape[1]]]))
    assert np.all(np.isfinite(f))
    assert np.all(f >= 0.0)


@PROPERTY
@given(fits())
def test_normalized_mass_is_one(fit):
    points, config = fit
    assert abs(normalization_mass(fit_model(points, config).coefficients) - 1.0) <= 1e-12


@PROPERTY
@given(fits(), st.randoms(use_true_random=False))
def test_point_order_does_not_matter(fit, random):
    points, config = fit
    order = list(range(len(points)))
    random.shuffle(order)
    base = estimate_coefficients(points, config).entries
    shuffled = estimate_coefficients(points[order], config).entries
    for key in base.keys() | shuffled.keys():
        assert abs(base.get(key, 0.0) - shuffled.get(key, 0.0)) <= 1e-12


@PROPERTY
@given(fits())
def test_coefficient_file_round_trip_is_exact(tmp_path_factory, fit):
    points, config = fit
    coeffs = fit_model(points, config).coefficients
    path = tmp_path_factory.mktemp("round-trip") / "model.json"
    write_coefficients(path, coeffs)
    back, _ = read_coefficients(path)
    assert list(back.entries) == list(coeffs.entries)
    assert back == coeffs
