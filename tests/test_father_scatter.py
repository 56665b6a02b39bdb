"""The father-only levels (the top of every fit pyramid and every trend-only
estimate) take ``estimator._father_level``: one scatter per point over axes
1..d-1 into a table of snapped first-axis columns, then a contraction of
axis 0.  The per-level scatter ``_accumulate_level`` stays the reference it
must agree with."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from test_grid_walks import _openblas_on_x86_64
from wavedens import estimator
from wavedens.classical import classical_coefficients
from wavedens.cli import main
from wavedens.errors import BudgetError
from wavedens.estimator import EstimatorConfig, estimate_coefficient_sets, estimate_coefficients, fit_model
from wavedens.wavelets import cached_family

pytestmark = pytest.mark.filterwarnings("ignore::wavedens.errors.KConsistencyWarning")

# (level, sample size) per dimension: levels 0 to 11 in all, n from 2 to 20 000
LEVELS = {
    1: [(0, 2), (3, 50), (7, 20_000), (10, 300), (11, 2_000)],
    2: [(0, 2), (1, 400), (4, 20_000), (6, 1_500), (8, 300)],
    3: [(0, 40), (2, 1_000), (4, 300)],
}


def sample(d, n, seed):
    """Beta-distributed points whose last few repeat the first, with four
    weight rows that are zero at the repeats, as the k-NN weights are."""
    rng = np.random.default_rng(seed)
    pts = rng.beta(2.0, 3.0, (n, d))
    weights = rng.random((4, n))
    if n > 4:
        pts[-3:] = pts[0]
        weights[:, -3:] = 0.0
    return pts, weights


def assert_close(reference, level, j):
    """Same zmin, shape and nonzeros, within 1e-13 of the largest value."""
    (zmin, expected), = reference.values()
    (zmin_got, got), = level.values()
    assert list(level) == [(j, 0)]
    np.testing.assert_array_equal(zmin_got, zmin)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got != 0, expected != 0)
    assert np.abs(got - expected).max(initial=0.0) <= 1e-13 * np.abs(expected).max(initial=0.0)


@pytest.mark.parametrize("order", [1, 2, 6])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_father_level_matches_the_per_level_scatter(d, order):
    family = cached_family(order, 10)
    for j, n in LEVELS[d]:
        pts, weights = sample(d, n, 100 * d + 10 * order + j)
        batch = estimator._father_level(family, pts, weights, j)
        for row, reference, level in zip(weights, estimator._accumulate_level(family, pts, [0], weights, j), batch):
            assert_close(reference, level, j)
            # a row keeps the bits of its one-row call
            (_, alone), = estimator._father_level(family, pts, row[None], j)[0].values()
            np.testing.assert_array_equal(alone, level[(j, 0)][1])
        ones = np.broadcast_to(1.0, (1, n))
        assert_close(estimator._accumulate_level(family, pts, [0], ones, j)[0], estimator._father_level(family, pts, ones, j)[0], j)


@pytest.mark.parametrize("d, order, j, n", [(1, 6, 0, 200), (1, 2, 4, 300), (2, 6, 2, 300), (2, 1, 7, 100), (3, 2, 1, 80)])
def test_sums_keep_their_bits_for_any_chunk_size_that_holds_a_cell(monkeypatch, d, order, j, n):
    family = cached_family(order, 10)
    pts, weights = sample(d, n, 7 * d + j)
    whole = estimator._father_level(family, pts, weights, j)
    # one level-j cell of T: its columns times the cells of the later axes
    _, shape = estimator._level_box(family, estimator.snap_to_dyadic(estimator._column_extremes(pts)), j)
    cell = 8 * (1 << min(max(10 - j, 0), 11)) * int(np.prod(shape[1:]))
    # a cell a range, three cells of one row, and a few rows of a few cells
    for budget in (cell, 3 * cell, 9 * cell + 8):
        monkeypatch.setattr(estimator, "_CHUNK_BYTES", budget)
        for got, expected in zip(estimator._father_level(family, pts, weights, j), whole):
            np.testing.assert_array_equal(got[(j, 0)][1], expected[(j, 0)][1])


class CountingAdd:
    """``np.add`` that records the size of every ``at`` scatter."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def at(self, target, index, values):
        self.sizes.append(np.size(values))
        return np.add.at(target, index, values)


class Numpy:
    """The numpy module, with ``add.at`` counted."""

    def __init__(self, sizes):
        self.add = CountingAdd(sizes)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("d, order, J", [(1, 6, 7), (2, 6, 3), (2, 2, 7), (3, 6, 1)])
def test_the_fit_scatters_each_point_over_the_later_axes_once(monkeypatch, d, order, J):
    sizes = []
    monkeypatch.setattr(estimator, "np", Numpy(sizes))
    n, width = 3_000, 2 * order - 1
    pts = np.random.default_rng(d + J).random((n, d))
    fit_model(pts, EstimatorConfig(wavelet_order=order, j0=0, J=J, k=1))
    assert sum(sizes) == n * width ** (d - 1)
    sizes.clear()
    estimate_coefficient_sets(pts, EstimatorConfig(wavelet_order=order, j0=J + 1, J=J), (1, 2, 5))
    assert sum(sizes) == 3 * n * width ** (d - 1)


class RecordingZeros(Numpy):
    """The numpy module, with every ``zeros`` call recorded."""

    def __init__(self, shapes):
        super().__init__([])
        self.shapes = shapes

    def zeros(self, shape, *args, **kwargs):
        self.shapes.append(shape)
        return np.zeros(shape, *args, **kwargs)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda pts: fit_model(pts, EstimatorConfig(wavelet_order=6, j0=0, J=2, k=1)),
        lambda pts: estimate_coefficients(pts, EstimatorConfig(wavelet_order=6, j0=3, J=2, k=1)),
        lambda pts: estimate_coefficients(pts, EstimatorConfig(wavelet_order=6, j0=0, J=2, k=1)),
        lambda pts: classical_coefficients(pts, EstimatorConfig(wavelet_order=6, j0=0, J=2, k=1)),
    ],
    ids=["fit", "trend-only", "per-level", "classical"],
)
def test_a_level_past_the_budget_is_refused_before_the_scatter_allocates(monkeypatch, estimate):
    pts = np.random.default_rng(8).random((300, 2))
    # one cell short of the level-3 father box and one column of its table;
    # the per-level scatter's level 0 holds four 11 x 11 blocks, more still
    budget = box_and_column(pts) - 1
    monkeypatch.setattr(estimator, "_MAX_FILE_CELLS", budget)
    shapes = []
    monkeypatch.setattr(estimator, "np", RecordingZeros(shapes))
    with pytest.raises(BudgetError, match=f"past {budget} cells"):
        estimate(pts)
    assert shapes == []


def box_and_column(pts):
    _, shape = estimator._level_box(cached_family(6, 10), estimator.snap_to_dyadic(estimator._column_extremes(pts)), 3)
    return int(np.prod(shape)) + int(np.prod(shape[1:]))


def test_the_box_and_one_column_fit_at_the_budget(monkeypatch):
    pts = np.random.default_rng(8).random((300, 2))
    config = EstimatorConfig(wavelet_order=6, j0=3, J=2, k=1)
    expected = estimate_coefficients(pts, config)
    monkeypatch.setattr(estimator, "_MAX_FILE_CELLS", box_and_column(pts))
    assert estimate_coefficients(pts, config) == expected


@pytest.mark.parametrize(
    "d, flags",
    [(1, ["--J", "28"]), (2, ["--J", "12"]), (8, ["--wavelet", "db4", "--J", "0"])],
    ids=["1-D J=28", "2-D J=12", "8-D db4 J=0"],
)
def test_a_fit_past_the_budget_exits_3_at_once_and_writes_nothing(tmp_path, capsys, d, flags):
    # these ran for up to 44 s, and two of them ended in a memory error
    points = tmp_path / "points.csv"
    np.savetxt(points, np.random.default_rng(d).random((300 if d == 8 else 500, d)), delimiter=",")
    start = time.perf_counter()
    assert main(["fit", str(points), "-o", str(tmp_path / "m.json"), *flags]) == 3
    assert time.perf_counter() - start < 5.0
    assert "past 16777216 cells" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [points]


FIT_BITS = """
import hashlib, sys
import numpy as np
from wavedens.estimator import EstimatorConfig, estimate_coefficient_sets, fit_model
from wavedens.wavelets import cached_family
saved = np.load(sys.argv[1])
for order in (2, 6):
    family = cached_family(order, 10)
    for name in ("lowpass", "highpass", "father_table", "mother_table"):
        object.__setattr__(family, name, saved[f"{name}{order}"])
digest = hashlib.sha256()
for d, order, J, n in [(1, 6, 6, 4000), (2, 6, 3, 20000), (3, 2, 2, 3000)]:
    pts = np.random.default_rng(d).beta(2.0, 3.0, (n, d))
    sets = [fit_model(pts, EstimatorConfig(wavelet_order=order, j0=0, J=J, k=1, normalize=False)).coefficients]
    sets += estimate_coefficient_sets(pts, EstimatorConfig(wavelet_order=order, j0=J + 1, J=J), (1, 4))
    for coeffs in sets:
        for zmin, dense in coeffs.blocks.values():
            digest.update(zmin.tobytes() + dense.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs OpenBLAS on x86-64")
def test_fit_bits_do_not_depend_on_the_blas_kernel(tmp_path):
    # build_family's filters and tables round with the BLAS kernel, so every
    # child takes this process's; the variable is read when OpenBLAS loads,
    # so it acts on a child only
    saved = tmp_path / "families.npz"
    np.savez(saved, **{
        f"{name}{order}": getattr(cached_family(order, 10), name)
        for order in (2, 6) for name in ("lowpass", "highpass", "father_table", "mother_table")
    })
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    digests = set()
    for coretype in (None, "Haswell", "Sandybridge", "Prescott"):
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("OPENBLAS_CORETYPE", None)
        env.update({"OPENBLAS_CORETYPE": coretype} if coretype else {})
        run = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", FIT_BITS, str(saved)],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1
