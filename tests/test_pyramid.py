"""fit_model estimates through Mallat's pyramid: one father scatter at level
J+1, then analysis steps down to j0.  The direct per-level scatter of
estimate_coefficients stays the reference it must agree with."""

import dataclasses

import numpy as np
import pytest

from wavedens import estimator
from wavedens.estimator import EstimatorConfig, estimate_coefficients, fit_model

pytestmark = pytest.mark.filterwarnings("ignore::wavedens.errors.KConsistencyWarning")


def assert_matches_direct(points, config):
    """The unnormalized fit_model set agrees with estimate_coefficients
    within 1e-12 of the largest coefficient, with the same nonzeros; a
    trend-only set keeps every bit."""
    config = dataclasses.replace(config, normalize=False, threshold_constant=None)
    direct = estimate_coefficients(points, config)
    pyramid = fit_model(points, config).coefficients
    if config.J == config.j0 - 1:
        assert pyramid == direct
        return
    for field in dataclasses.fields(direct)[1:]:
        assert getattr(pyramid, field.name) == getattr(direct, field.name), field.name
    a, b = direct.entries, pyramid.entries
    one_sided = sorted(a.keys() ^ b.keys(), key=lambda key: (key.level, key.orientation, key.translate))
    assert not one_sided, f"nonzero on one side only: {[(key, a.get(key), b.get(key)) for key in one_sided[:5]]}"
    assert len(b) == len(a)
    scale = max(map(abs, a.values()))
    assert max(abs(a[key] - b[key]) for key in a) <= 1e-12 * scale
    assert list(pyramid.blocks) == sorted(pyramid.blocks)


@pytest.mark.parametrize("j0, J", [(0, -1), (0, 0), (0, 2), (1, 2)])
@pytest.mark.parametrize("order", [1, 2, 6])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pyramid_matches_direct_scatter(d, order, j0, J):
    points = np.random.default_rng(100 * d + 10 * order + J).beta(2.0, 3.0, (150, d))
    assert_matches_direct(points, EstimatorConfig(wavelet_order=order, j0=j0, J=J, k=2))


def test_fit_scatters_once_at_the_finest_level(monkeypatch):
    calls = []
    father = estimator._father_level

    def counting(family, points, weights, j):
        calls.append(j)
        return father(family, points, weights, j)

    def per_level(*args):
        raise AssertionError("the fit ran the per-level scatter")

    monkeypatch.setattr(estimator, "_father_level", counting)
    monkeypatch.setattr(estimator, "_accumulate_level", per_level)
    points = np.random.default_rng(3).random((200, 2))
    fit_model(points, EstimatorConfig(wavelet_order=2, j0=0, J=2, k=1))
    assert calls == [3]
