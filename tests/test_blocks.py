"""Coefficient sets stored as dense per-(level, orientation) blocks reproduce
the dict-keyed operations of ``dict_oracle`` bit for bit, keys in order."""

import math

import numpy as np
import pytest

import dict_oracle as oracle
from wavedens import simulation
from wavedens.classical import classical_coefficients, rescale_classical
from wavedens.estimator import (
    CoefficientSet,
    DensityModel,
    EstimatorConfig,
    dilation_coefficients,
    estimate_coefficients,
    normalization_mass,
    normalize,
    soft_threshold,
    to_single_trend,
    truncate_details,
)
from wavedens.metrics import GridSpec
from wavedens.simulation import BenchmarkConfig
from wavedens.wavelets import cached_family

pytestmark = pytest.mark.filterwarnings("ignore::wavedens.errors.KConsistencyWarning")

CASES = pytest.mark.parametrize(
    "d, order, kind", [(d, order, kind) for d in (1, 2, 3) for order in (1, 2, 6) for kind in ("sp", "cl")]
)


def fitted(d, order, kind):
    """A raw coefficient set and the oracle's entries for the same sample;
    d = 3 db6 is trend-only, since its synthesis alone takes seconds."""
    rng = np.random.default_rng(100 * d + order)
    pts = rng.random((120 if d < 3 else 60, d))
    J = 1 if d < 3 else (0 if order < 6 else -1)
    cfg = EstimatorConfig(wavelet_order=order, j0=0, J=J, k=2, normalize=False)
    if kind == "cl":
        return pts, cfg, classical_coefficients(pts, cfg), oracle.classical(pts, cfg)
    return pts, cfg, estimate_coefficients(pts, cfg), oracle.estimate(pts, cfg)


def assert_same(cs, expected):
    assert list(cs.entries.items()) == list(expected.items())


@CASES
def test_raw_estimation_and_mass(d, order, kind):
    _, _, cs, raw = fitted(d, order, kind)
    assert_same(cs, raw)
    assert normalization_mass(cs) == oracle.mass(raw)


@CASES
def test_normalize(d, order, kind):
    _, _, cs, raw = fitted(d, order, kind)
    assert_same(normalize(cs), oracle.normalize(raw))


@CASES
def test_soft_threshold(d, order, kind):
    pts, _, cs, raw = fitted(d, order, kind)
    n = len(pts)
    details = [abs(val) for key, val in raw.items() if key.orientation]
    # t_0 at the median detail magnitude: some details vanish, others shrink
    constant = float(np.median(details or [1.0])) * math.sqrt(n)
    expected = oracle.soft_threshold(raw, constant, n)
    if details:
        assert len(raw) - len(details) < len(expected) < len(raw)
    assert_same(soft_threshold(cs, constant, n), expected)
    assert_same(normalize(soft_threshold(cs, constant, n)), oracle.normalize(expected))


@CASES
def test_truncate_details(d, order, kind):
    _, cfg, cs, raw = fitted(d, order, kind)
    for new_J in range(cfg.j0 - 1, cfg.J + 1):
        assert_same(truncate_details(cs, new_J), oracle.truncate(raw, new_J))
        assert_same(normalize(truncate_details(cs, new_J)), oracle.normalize(oracle.truncate(raw, new_J)))


@CASES
def test_single_trend_then_dilation(d, order, kind):
    _, cfg, cs, raw = fitted(d, order, kind)
    family = cached_family(order, cfg.dyadic_resolution)
    single = to_single_trend(cs, family)
    expected = oracle.to_single_trend(raw, d, cfg.j0, cfg.J, family)
    assert_same(single, expected)
    assert_same(dilation_coefficients(single, family), oracle.dilation(expected, d, cfg.J, family))


@CASES
def test_model_sees_the_same_blocks(d, order, kind):
    _, cfg, cs, raw = fitted(d, order, kind)
    family = cached_family(order, cfg.dyadic_resolution)
    if kind == "sp":
        cs, raw = normalize(cs), oracle.normalize(raw)
    axes = GridSpec.unit(d, 16 if d < 3 else 8).axes()
    np.testing.assert_array_equal(
        DensityModel(family, cs).reconstruct_on_axes(axes), oracle.reconstruct_on_axes(family, raw, d, axes)
    )


@pytest.mark.parametrize("d, order", [(d, order) for d in (1, 2, 3) for order in (1, 2, 6)])
def test_rescale_classical(d, order):
    _, cfg, cs, raw = fitted(d, order, "cl")
    family = cached_family(order, cfg.dyadic_resolution)
    grid = GridSpec.unit(d, 16 if d < 3 else 8)
    rescaled = rescale_classical(DensityModel(family, cs), grid).coefficients
    assert_same(rescaled, oracle.rescale_classical(raw, family, d, grid))


def test_sweep_rows_never_build_the_entries_view(monkeypatch):
    builds = []
    view = CoefficientSet.entries.func

    def counting_view(self):
        builds.append(self)
        return view(self)

    monkeypatch.setattr(CoefficientSet, "entries", property(counting_view))
    # one shape-preserving and one classical row: estimate, truncate,
    # normalize, DensityModel and grid_eval
    config = BenchmarkConfig(
        densities=("similar-pair",), sample_sizes=(64,), replications=1, J_values=(0,),
        k_values=(1,), wavelet_order=2, grid_resolution=16, seed=5,
    )
    report = simulation.run_benchmark(config, workers=1)
    assert len(report.rows) == 2 and not report.failed
    assert builds == []
    cs = estimate_coefficients(np.random.default_rng(0).random((20, 2)), EstimatorConfig(wavelet_order=2))
    assert len(cs.entries) > 0 and builds == [cs]
