"""Coefficient sets stored as dense per-(level, orientation) blocks reproduce
the dict-keyed operations of ``dict_oracle`` bit for bit, keys in order; the
level transforms, which filter one axis at a time, agree with the oracle's
tensor filters to rounding."""

import dataclasses
import math

import numpy as np
import pytest

import dict_oracle as oracle
from wavedens import cli, simulation
from wavedens.classical import classical_coefficients, rescale_classical
from wavedens.estimator import (
    CoefficientSet,
    DensityModel,
    EstimatorConfig,
    dilation_coefficients,
    estimate_coefficients,
    fit_model,
    normalization_mass,
    normalize,
    read_coefficients,
    rescale_to_domain,
    soft_threshold,
    truncate_details,
    write_coefficients,
)
from wavedens.metrics import GridSpec
from wavedens.simulation import BenchmarkConfig
from wavedens.wavelets import cached_family

pytestmark = pytest.mark.filterwarnings("ignore::wavedens.errors.KConsistencyWarning")

CASES = pytest.mark.parametrize(
    "d, order, kind", [(d, order, kind) for d in (1, 2, 3) for order in (1, 2, 6) for kind in ("sp", "cl")]
)


def fitted(d, order, kind):
    """A raw coefficient set and the oracle's entries for the same sample."""
    rng = np.random.default_rng(100 * d + order)
    pts = rng.random((120 if d < 3 else 60, d))
    J = 1 if d < 3 else 0
    cfg = EstimatorConfig(wavelet_order=order, j0=0, J=J, k=2, normalize=False)
    if kind == "cl":
        return pts, cfg, classical_coefficients(pts, cfg), oracle.classical(pts, cfg)
    return pts, cfg, estimate_coefficients(pts, cfg), oracle.estimate(pts, cfg)


def assert_same(cs, expected):
    assert list(cs.entries.items()) == list(expected.items())


def assert_close(cs, expected, rel=1e-13):
    """Entries within rel * max|c| over the union of keys."""
    scale = max(map(abs, expected.values()))
    for key in cs.entries.keys() | expected.keys():
        assert abs(cs.entries.get(key, 0.0) - expected.get(key, 0.0)) <= rel * scale


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
    assert_same(soft_threshold(cs, constant), expected)
    assert_same(normalize(soft_threshold(cs, constant)), oracle.normalize(expected))


@CASES
def test_truncate_details(d, order, kind):
    _, cfg, cs, raw = fitted(d, order, kind)
    for new_J in range(cfg.j0 - 1, cfg.J + 1):
        assert_same(truncate_details(cs, new_J), oracle.truncate(raw, new_J))
        assert_same(normalize(truncate_details(cs, new_J)), oracle.normalize(oracle.truncate(raw, new_J)))


@CASES
def test_single_trend_then_dilation(d, order, kind):
    _, cfg, cs, _ = fitted(d, order, kind)
    J = cfg.J
    if d == 3 and order == 6:
        # the oracle's tensor gather of the detail level peaks near 1 GiB
        J = cfg.j0 - 1
        cs = truncate_details(cs, J)
    family = cached_family(order, 10)
    single = oracle.single_trend_set(cs)
    assert_close(dilation_coefficients(single), oracle.dilation(single.entries, d, J, family))


@CASES
def test_model_sees_the_same_blocks(d, order, kind):
    _, cfg, cs, raw = fitted(d, order, kind)
    family = cached_family(order, 10)
    if kind == "sp":
        cs, raw = normalize(cs), oracle.normalize(raw)
    axes = GridSpec.unit(d, 16 if d < 3 else 8).axes()
    np.testing.assert_array_equal(
        DensityModel(cs).reconstruct_on_axes(axes), oracle.reconstruct_on_axes(family, raw, d, axes)
    )


@pytest.mark.parametrize("d, order", [(d, order) for d in (1, 2, 3) for order in (1, 2, 6)])
def test_rescale_classical(d, order):
    _, cfg, cs, raw = fitted(d, order, "cl")
    family = cached_family(order, 10)
    grid = GridSpec.unit(d, 16 if d < 3 else 8)
    rescaled = rescale_classical(DensityModel(cs), grid).coefficients
    assert_same(rescaled, oracle.rescale_classical(raw, family, d, grid))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("variant", ["fitted", "trend-only", "classical", "thresholded", "single-trend", "empty"])
def test_writer_keeps_the_bytes_of_the_entries_writer(tmp_path, d, variant):
    pts, cfg, raw, _ = fitted(d, 2, "cl" if variant == "classical" else "sp")
    details = [abs(dense).max() for (_, q), (_, dense) in raw.blocks.items() if q]
    cs = {
        "fitted": lambda: fit_model(pts, cfg).coefficients,
        "trend-only": lambda: truncate_details(raw, cfg.j0 - 1),
        "classical": lambda: raw,
        "thresholded": lambda: normalize(soft_threshold(raw, float(np.median(details)) * math.sqrt(len(pts)))),
        "single-trend": lambda: oracle.single_trend_set(raw),
        "empty": lambda: dataclasses.replace(raw, blocks={}),
    }[variant]()
    header = dict(
        domain=np.column_stack([np.zeros(d), np.ones(d)]),
        affine=rescale_to_domain(pts, padding=0.1)[1],
        provenance={"flags": {"J": cfg.J, "wavelet": 2}, "seed": 7, "numpy": np.__version__},
    )
    write_coefficients(tmp_path / "blocks.json", cs, **header)
    oracle.write_coefficients(tmp_path / "entries.json", cs, **header)
    assert (tmp_path / "blocks.json").read_bytes() == (tmp_path / "entries.json").read_bytes()


def test_sweep_rows_never_build_the_entries_view(monkeypatch, tmp_path):
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
    # the library file path: fit, write, read, evaluate
    pts = np.random.default_rng(1).random((64, 2))
    model = fit_model(pts, EstimatorConfig(wavelet_order=2, J=1))
    write_coefficients(tmp_path / "lib.json", model.coefficients)
    back, _ = read_coefficients(tmp_path / "lib.json")
    assert np.all(np.isfinite(DensityModel(back).density(pts)))
    # the CLI file path: fit, then eval at points and on a grid
    csv = tmp_path / "pts.csv"
    csv.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    model_json, out = str(tmp_path / "cli.json"), str(tmp_path / "out.csv")
    assert cli.main(["fit", str(csv), "-o", model_json, "--wavelet", "db2", "--J", "1"]) == 0
    assert cli.main(["eval", model_json, str(csv), "-o", out]) == 0
    assert cli.main(["eval", model_json, "--grid", "8", "-o", out]) == 0
    assert builds == []
    cs = estimate_coefficients(np.random.default_rng(0).random((20, 2)), EstimatorConfig(wavelet_order=2))
    assert len(cs.entries) > 0 and builds == [cs]


@pytest.mark.parametrize("d", [2, 3])
def test_every_block_is_c_order(tmp_path, d):
    # point reconstruction rounds by the blocks' memory layout, so a fitted
    # set and its file read-back must lay their blocks out alike
    pts = np.random.default_rng(40 + d).random((200, d))
    cfg = EstimatorConfig(wavelet_order=2, j0=0, J=2 if d == 2 else 1, k=1)
    fitted = fit_model(pts, cfg).coefficients
    write_coefficients(tmp_path / "m.json", fitted)
    sets = {
        "fit_model": fitted,
        "classical_coefficients": classical_coefficients(pts, cfg),
        "soft_threshold": soft_threshold(fitted, 0.5),
        "truncate_details": truncate_details(fitted, 0),
        "dilation_coefficients": dilation_coefficients(
            estimate_coefficients(pts, EstimatorConfig(wavelet_order=2, j0=3, J=2, k=1))
        ),
        "read_coefficients": read_coefficients(tmp_path / "m.json")[0],
    }
    for name, cs in sets.items():
        assert cs.blocks, name
        assert all(dense.flags.c_contiguous for _, dense in cs.blocks.values()), name
