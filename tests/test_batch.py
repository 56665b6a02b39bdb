"""One basis design per sample: the k-batch estimator, its single k-d tree
query and the cached grid columns keep every bit of the one-k paths."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

import dict_oracle as oracle
from heap import traced_peak
from wavedens import estimator
from wavedens.errors import EstimationError, KConsistencyWarning
from wavedens.estimator import (
    DensityModel,
    EstimatorConfig,
    estimate_coefficient_sets,
    estimate_coefficients,
    fit_model,
    normalize,
)
from wavedens.metrics import GridSpec
from wavedens.neighbors import knn_stats, validate_k
from wavedens.simulation import BenchmarkConfig, run_benchmark
from wavedens.wavelets import BasisIndex, cached_family

pytestmark = pytest.mark.filterwarnings("ignore::wavedens.errors.KConsistencyWarning")

KS = (1, 2, 4, 8)

CASES = pytest.mark.parametrize("d, order", [(d, order) for d in (1, 2, 3) for order in (1, 2, 6)])


def sample(d, seed, n=90):
    """Points with duplicates: one point four times (zero radius up to k=3)
    and ten more pairs (zero radius at k=1)."""
    pts = np.random.default_rng(seed).random((n, d))
    pts[-10:] = pts[1:11]
    pts[-13:-10] = pts[0]
    return pts


def config(d, order):
    # d = 3 stops at J = 0 to keep the db6 case fast
    return EstimatorConfig(wavelet_order=order, j0=0, J=1 if d < 3 else 0, k=1, normalize=False)


@CASES
def test_batch_equals_one_k_calls(d, order):
    pts, cfg = sample(d, 10 * d + order), config(d, order)
    batch = estimate_coefficient_sets(pts, cfg, KS)
    assert [cs.k for cs in batch] == list(KS)
    for k, cs in zip(KS, batch):
        one = estimate_coefficients(pts, dataclasses.replace(cfg, k=k))
        assert cs == one
        assert list(cs.entries.items()) == list(oracle.estimate(pts, dataclasses.replace(cfg, k=k)).items())


@pytest.mark.parametrize("d, order", [(1, 6), (2, 2), (2, 6), (3, 1)])
def test_batch_in_chunks_of_a_few_rows(monkeypatch, d, order):
    pts, cfg = sample(d, 20 + d), config(d, order)
    whole = [estimate_coefficients(pts, dataclasses.replace(cfg, k=k)) for k in KS]
    width = 2 * order - 1
    for rows in (1, 3, 7):
        # the chunk-size rule of _accumulate_level, inverted
        monkeypatch.setattr(estimator, "_CHUNK_BYTES", rows * 8 * (3 * width**d + 3 * d * width))
        assert estimate_coefficient_sets(pts, cfg, KS) == whole


@pytest.mark.parametrize("d, order", [(1, 6), (2, 1), (2, 6), (3, 2)])
def test_each_k_keeps_the_one_k_arithmetic(d, order):
    # every coefficient is the point-order sum, from +0.0, of the products
    # ((u_0 * u_1) * ...) * (w * 2^(dj/2)) of exact table values at the snapped points
    pts, cfg = sample(d, 40 + d, n=12), config(d, order)
    family = cached_family(order, 10)
    r = family.dyadic_resolution
    snapped = estimator.snap_to_dyadic(pts).tolist()
    for k, cs in zip(KS, estimate_coefficient_sets(pts, cfg, KS)):
        w = estimator.consistency_factor(k) / math.sqrt(len(pts)) * np.sqrt(oracle.radii_and_volumes(pts, k)[1])
        for (j, q), (zmin, dense) in cs.blocks.items():
            tables = [family.mother_table if (q >> a) & 1 else family.father_table for a in range(d)]
            for cell in np.ndindex(dense.shape):
                z = (zmin + cell).tolist()
                total = 0.0
                for x, wi in zip(snapped, w):
                    idx = [(x[a] << j) - (z[a] << r) for a in range(d)]
                    if all(0 <= i < len(t) for i, t in zip(idx, tables)):
                        prod = tables[0][idx[0]]
                        for t, i in zip(tables[1:], idx[1:]):
                            prod = prod * t[i]
                        total += prod * (wi * 2.0 ** (d * j / 2.0))
                assert dense[cell] == total, (k, j, q, z)


def test_batch_validates_like_one_k_calls():
    pts, cfg = np.random.default_rng(4).random((32, 2)), config(2, 1)

    def message(call):
        with pytest.raises(EstimationError) as info:
            call()
        return str(info.value)

    # too few points; k >= n, where the first failing k names the error; points off the domain
    for bad_pts, ks, first in [(pts[:1], (1,), 1), (pts, (1, 40, 32), 40), (pts + 1.0, (1, 2), 1)]:
        expected = message(lambda: estimate_coefficients(bad_pts, dataclasses.replace(cfg, k=first)))
        assert message(lambda: estimate_coefficient_sets(bad_pts, cfg, ks)) == expected
    # one k warning per failing k, each attributed to the caller
    with pytest.warns(KConsistencyWarning) as record:
        estimate_coefficient_sets(pts, cfg, (1, 4, 2, 8))
    assert [str(w.message) for w in record] == [validate_k(32, 4).message, validate_k(32, 8).message]
    assert all(w.filename == __file__ for w in record)
    with pytest.warns(KConsistencyWarning) as record:
        estimate_coefficients(pts, dataclasses.replace(cfg, k=8))
    assert [w.filename for w in record] == [__file__]


def test_k_warning_names_the_callers_line():
    pts, cfg = np.random.default_rng(5).random((20, 2)), dataclasses.replace(config(2, 1), k=15)
    calls = [
        lambda: fit_model(pts, cfg),
        lambda: estimate_coefficients(pts, cfg),
        lambda: estimate_coefficient_sets(pts, cfg, (15,)),
    ]
    for call in calls:
        with pytest.warns(KConsistencyWarning) as record:
            call()
        assert [(w.filename, w.lineno) for w in record] == [(__file__, call.__code__.co_firstlineno)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_query_gives_the_radii_of_each_k(d):
    # coordinates on a coarse lattice, plus duplicates: many tied distances
    pts = np.round(np.random.default_rng(d).random((300, d)) * 6) / 6
    pts[-30:] = pts[:30]
    radii = knn_stats(pts, KS)
    assert radii.shape == (len(KS), len(pts)) and radii.flags.c_contiguous
    for k, row in zip(KS, radii):
        expected = cKDTree(pts).query(pts, k=k + 1)[0][:, k]
        (one,) = knn_stats(pts, [k])
        assert np.array_equal(row, expected) and np.array_equal(one, expected)


def grid_cases(d):
    """Grid axes: cell centres of the unit cube, a sub-interval that cuts
    every level's translate range short, and points outside the cube, one
    of them not finite."""
    sub = np.linspace(0.31, 0.47, 5)
    outside = np.array([-0.6, 0.05, 0.5, 1.7, np.nan, np.inf])
    return [GridSpec.unit(d, 16 if d < 3 else 8).axes(), [sub] * d, [outside] + [sub] * (d - 1)]


@CASES
def test_grid_path_matches_the_axis_factor_oracle(d, order):
    pts, cfg = sample(d, 30 + d), config(d, order)
    family = cached_family(order, 10)
    fitted = normalize(estimate_coefficients(pts, cfg))
    # two far-off father translates stretch the j0 block past both ends of
    # any grid axis's translate range
    far = dict(fitted.entries)
    far[BasisIndex(0, (-40,) * d, 0)] = 0.25
    far[BasisIndex(0, (50,) * d, 0)] = -0.5
    meta = {f.name: getattr(fitted, f.name) for f in dataclasses.fields(fitted) if f.name != "blocks"}
    for cs in (fitted, oracle.coefficient_set(far, **meta)):
        for axes in grid_cases(d):
            np.testing.assert_array_equal(
                DensityModel(cs).reconstruct_on_axes(axes),
                oracle.reconstruct_on_axes(family, cs.entries, d, axes),
            )


def test_grid_columns_are_read_only_and_bounded():
    maxsize = estimator._grid_columns.cache_info().maxsize
    assert maxsize is not None
    pts = sample(1, 5)
    model = DensityModel(normalize(estimate_coefficients(pts, config(1, 2))))
    for shift in range(maxsize + 5):
        model.reconstruct_on_axes([np.linspace(0.0, 1.0, 9) + shift * 1e-3])
    assert estimator._grid_columns.cache_info().currsize <= maxsize
    _, columns = estimator._grid_columns(2, 1, True, np.linspace(0.0, 1.0, 9).tobytes())
    assert not columns.flags.writeable
    with pytest.raises(ValueError):
        columns[0, 0] = 1.0


def test_batch_memory_stays_near_one_k_call():
    pts = np.random.default_rng(8).random((2048, 2))
    cfg = EstimatorConfig(wavelet_order=6, j0=0, J=3, k=1)
    estimate_coefficients(pts, cfg)  # wavelet tables built outside the measurement
    _, one = traced_peak(lambda: estimate_coefficients(pts, cfg))
    _, batch = traced_peak(lambda: estimate_coefficient_sets(pts, cfg, KS))
    assert batch <= 1.1 * one


def test_sweep_rows_keep_the_one_k_error_messages():
    # n=1 fails every k on the sample size; at n=4, k=4 and k=8 fail alone
    config = BenchmarkConfig(
        densities=("uniform",), sample_sizes=(1, 4), replications=1, J_values=(-1,),
        k_values=(1, 4, 8), wavelet_order=1, grid_resolution=16, seed=3,
        estimators=("shape-preserving",),
    )
    errors = {(row.n, row.k): row.error for row in run_benchmark(config, workers=1).rows}
    assert errors == {
        (1, 1): "need at least 2 points to estimate, got 1",
        (1, 4): "need at least 2 points to estimate, got 1",
        (1, 8): "need at least 2 points to estimate, got 1",
        (4, 1): None,
        (4, 4): "k=4 requires at least k+1=5 points",
        (4, 8): "k=8 requires at least k+1=9 points",
    }
