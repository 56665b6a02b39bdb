"""Property tests over small random samples in one and two dimensions."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dict_oracle as oracle
from test_pyramid import assert_matches_direct
from wavedens import cli
from wavedens.estimator import (
    EstimatorConfig,
    dilation_coefficients,
    estimate_coefficient_sets,
    estimate_coefficients,
    fit_model,
    normalization_mass,
    read_coefficients,
    soft_threshold,
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
@given(fits())
def test_fit_pyramid_matches_direct_scatter(fit):
    assert_matches_direct(*fit)


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
def test_blocks_are_sorted_and_trimmed(fit):
    points, config = fit
    raw = estimate_coefficients(points, config)
    for cs in (raw, fit_model(points, config).coefficients, soft_threshold(raw, 1.0)):
        assert list(cs.blocks) == sorted(cs.blocks)
        for _, dense in cs.blocks.values():
            for axis in range(dense.ndim):
                others = tuple(a for a in range(dense.ndim) if a != axis)
                nonzero = np.any(dense != 0.0, axis=others)
                assert nonzero[0] and nonzero[-1]


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
    single = oracle.single_trend_set(cs)
    assert (single.j0, single.J) == (cs.J + 1, cs.J)
    mass = normalization_mass(cs)
    assert abs(normalization_mass(single) - mass) <= 1e-12 * mass
    back = dilation_coefficients(single).entries
    scale = max(map(abs, cs.entries.values()))
    for key in cs.entries.keys() | back.keys():
        assert abs(cs.entries.get(key, 0.0) - back.get(key, 0.0)) <= 1e-12 * scale


HEADER_FIELDS = [
    "schema_version", "kind", "d", "n", "k", "j0", "J", "wavelet_order",
    "dyadic_resolution", "normalized", "representation", "domain",
]
FIELD_VALUES = st.one_of(
    st.integers(-3, 12),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from(["classical", "shape-preserving", "single-trend", "trend-plus-details", ""]),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 40_000), max_size=3),
    st.lists(st.lists(st.floats(-2.0, 3.0), min_size=2, max_size=2), max_size=3),
)


@st.composite
def file_mutations(draw):
    """One header field, or one field of one entry, set to another value."""
    if draw(st.booleans()):
        return None, draw(st.sampled_from(HEADER_FIELDS)), draw(FIELD_VALUES)
    return draw(st.integers(0, 200)), draw(st.sampled_from(["j", "z", "q", "value"])), draw(FIELD_VALUES)


@PROPERTY
@given(file_mutations())
def test_a_mutated_file_evaluates_finite_or_exits_2_or_3(tmp_path_factory, mutation):
    work = tmp_path_factory.mktemp("mutated")
    coeffs = fit_model(np.random.default_rng(8).random((64, 2)), EstimatorConfig(wavelet_order=2, J=1)).coefficients
    write_coefficients(work / "m.json", coeffs, domain=[[0.0, 1.0], [0.0, 1.0]])
    doc = json.loads((work / "m.json").read_text())
    entry, field, value = mutation
    (doc if entry is None else doc["entries"][entry % len(doc["entries"])])[field] = value
    (work / "m.json").write_text(json.dumps(doc))
    code = cli.main(["eval", str(work / "m.json"), "--grid", "4", "-o", str(work / "out.csv")])
    assert code in (0, 2, 3)
    if code == 0:
        f = cli.read_points_csv(work / "out.csv")[:, -1]
        assert np.all(np.isfinite(f))
        # only the shape-preserving kind squares its reconstruction
        if doc.get("kind") != "classical":
            assert np.all(f >= 0.0)
