"""Property tests over small random samples in one and two dimensions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavedens.estimator import (
    CoefficientSet,
    EstimatorConfig,
    dilation_coefficients,
    estimate_coefficient_sets,
    estimate_coefficients,
    fit_model,
    normalization_mass,
    read_coefficients,
    soft_threshold,
    to_single_trend,
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


@PROPERTY
@given(fits())
def test_blocks_are_sorted_trimmed_and_rebuilt_from_entries(fit):
    points, config = fit
    raw = estimate_coefficients(points, config)
    for cs in (raw, fit_model(points, config).coefficients, soft_threshold(raw, 1.0), to_single_trend(raw)):
        assert list(cs.blocks) == sorted(cs.blocks)
        for _, dense in cs.blocks.values():
            for axis in range(dense.ndim):
                others = tuple(a for a in range(dense.ndim) if a != axis)
                nonzero = np.any(dense != 0.0, axis=others)
                assert nonzero[0] and nonzero[-1]
        meta = {f.name: getattr(cs, f.name) for f in dataclasses.fields(cs) if f.name != "blocks"}
        assert CoefficientSet.from_entries(cs.entries, **meta) == cs


@PROPERTY
@given(fits(), st.lists(st.integers(1, 7), min_size=1, max_size=4))
def test_batch_equals_one_k_calls(fit, ks):
    points, config = fit
    expected = [estimate_coefficients(points, dataclasses.replace(config, k=k)) for k in ks]
    assert estimate_coefficient_sets(points, config, ks) == expected


@PROPERTY
@given(fits())
def test_synthesis_then_analysis_is_the_identity(fit):
    points, config = fit
    cs = estimate_coefficients(points, dataclasses.replace(config, J=config.j0))
    single = to_single_trend(cs)
    assert (single.j0, single.J) == (cs.J + 1, cs.J)
    mass = normalization_mass(cs)
    assert abs(normalization_mass(single) - mass) <= 1e-12 * mass
    back = dilation_coefficients(single).entries
    scale = max(map(abs, cs.entries.values()))
    for key in cs.entries.keys() | back.keys():
        assert abs(cs.entries.get(key, 0.0) - back.get(key, 0.0)) <= 1e-12 * scale
