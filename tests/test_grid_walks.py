"""Grids are walked a chunk of cells at a time, with every value kept.

``GridSpec.cell_centers(start, stop)`` gives the centers of a range of cells;
``grid_eval`` on a callable and ``eval`` walk a grid through it, and the
mixture normalizer and truth fields walk it in slabs of rows, so none of them
holds the (R^d, d) array of every center.
The whole-grid forms are kept in ``grid_oracle`` and ``csv_oracle``.
"""

import io
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csv_oracle
import grid_oracle
from heap import traced_peak
from wavedens import __version__, estimator, simulation
from wavedens.cli import main
from wavedens.errors import BudgetError
from wavedens.estimator import AffineMap, EstimatorConfig, fit_model, model_from_file, write_coefficients
from wavedens.metrics import GridSpec, grid_eval, point_chunks

REGISTRY = ["anisotropic-pair", "similar-pair", "comb4"]


class TestCellRanges:
    @pytest.mark.parametrize(
        "box, resolution",
        [([[0.0, 1.0]], 7), ([[0.0, 2.0], [-1.0, 0.5]], 5), ([[0.0, 1.0], [0.1, 0.2], [3.0, 7.0]], 4), ([[0.0, 1.0]] * 4, 3)],
    )
    def test_every_range_is_a_slice_of_the_whole(self, box, resolution):
        grid = GridSpec.from_box(box, resolution)
        whole = grid.cell_centers()
        for start in range(grid.cells + 1):
            for stop in range(start, grid.cells + 1):
                np.testing.assert_array_equal(grid.cell_centers(start, stop), whole[start:stop])

    def test_a_range_holds_only_its_rows(self):
        # a 2^20-cell grid: 16 MiB of centers in all, 64 KiB for this range,
        # and the coordinates of one axis as scratch
        grid = GridSpec.unit(2, 1024)
        centers, peak = traced_peak(lambda: grid.cell_centers(1000, 5096))
        assert centers.shape == (4096, 2)
        assert peak <= centers.nbytes + 4 * 8 * grid.resolution


def _openblas_on_x86_64() -> bool:
    """Whether OPENBLAS_CORETYPE can pick another kernel for numpy's BLAS."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "").lower()


class TestRowChunks:
    def test_point_chunks_hold_a_sixteenth_of_the_budget(self):
        start, stop = next(point_chunks(10**6, 2))
        assert (stop - start) * 8 * 2 == estimator._CHUNK_BYTES // 16

    def test_a_row_does_not_depend_on_its_batch(self, monkeypatch):
        rng = np.random.default_rng(18)
        model = fit_model(rng.random((300, 2)), EstimatorConfig(wavelet_order=6, j0=0, J=2, k=1))
        pts = rng.random((50, 2))
        whole = model.reconstruct(pts)
        widest = max(
            sum(s) + 4 * max(s) + sum(math.prod(s[a:]) for a in range(1, len(s) + 1))
            for s in (dense.shape for _, dense in model.coefficients.blocks.values())
        )
        # 1 and 7 rows a chunk for the widest block, so reconstruct's own walk
        # runs 1-row chunks, and ends in a lone row on inputs of 7m + 1 rows;
        # the caller's pieces of every size end in lone rows too
        for rows in (1, 7):
            monkeypatch.setattr(estimator, "_CHUNK_BYTES", 8 * widest * rows)
            for size in range(1, len(pts) + 1):
                pieces = [model.reconstruct(pts[start : start + size]) for start in range(0, len(pts), size)]
                np.testing.assert_array_equal(np.concatenate(pieces), whole)

    def test_a_read_back_model_gives_the_fitted_bits(self, tmp_path):
        # the pyramid's axis steps leave Fortran-order arrays and the file
        # reader C-order ones; the contraction rounds by layout, so both sets
        # keep their blocks in C order
        rng = np.random.default_rng(27)
        config = EstimatorConfig(wavelet_order=6, j0=0, J=3, k=1, threshold_constant=1.0)
        model = fit_model(rng.beta(2, 3, (2048, 2)), config)
        write_coefficients(tmp_path / "m.json", model.coefficients)
        back, _ = model_from_file(tmp_path / "m.json")
        assert back.coefficients == model.coefficients
        pts = rng.random((2000, 2))
        np.testing.assert_array_equal(back.reconstruct(pts), model.reconstruct(pts))

    @pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs OpenBLAS on x86-64")
    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_rows_keep_their_bits_under_another_blas_kernel(self, coretype):
        # the variable is read when OpenBLAS loads, so it acts on a child only
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
        tests = [
            f"{Path(__file__).resolve()}::TestRowChunks::{name}"
            for name in ("test_a_row_does_not_depend_on_its_batch", "test_a_read_back_model_gives_the_fitted_bits")
        ]
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert "2 passed" in run.stdout


class TestQuadrature:
    @pytest.mark.parametrize("name", REGISTRY)
    def test_normalizer_is_the_whole_grid_sum(self, name):
        spec = simulation.get_density(name)
        assert spec.normalizer == grid_oracle.normalizer(spec)

    @pytest.mark.parametrize("name", REGISTRY + ["uniform"])
    def test_truth_field_is_the_whole_grid_field(self, name):
        spec = simulation.get_density(name)
        grid = GridSpec.unit(2, 128)
        field = simulation.true_density_field(spec, grid)
        np.testing.assert_array_equal(field.values, grid_oracle.true_density_values(spec, grid))

    @pytest.mark.parametrize("name", REGISTRY)
    def test_a_lone_last_slab_row_keeps_its_bits(self, monkeypatch, name):
        # 4096 // 91 = 45 rows a slab, so the last slab is one row of 91 cells
        for module in (simulation, grid_oracle):
            monkeypatch.setattr(module, "_NORMALIZER_RESOLUTION", 91)
        spec = simulation.get_density.__wrapped__(name)
        assert spec.normalizer == grid_oracle.normalizer(spec)
        grid = GridSpec.unit(2, 91)
        field = simulation.true_density_field(spec, grid)
        np.testing.assert_array_equal(field.values, grid_oracle.true_density_values(spec, grid))

    def test_callable_sees_one_chunk_at_a_time(self):
        grid = GridSpec.unit(2, 128)
        sizes = []
        field = grid_eval(lambda pts: sizes.append(len(pts)) or pts.sum(axis=1), grid)
        assert sizes == [stop - start for start, stop in point_chunks(grid.cells, 2)]
        assert len(sizes) > 1
        np.testing.assert_array_equal(field.values.ravel(), grid.cell_centers().sum(axis=1))

    def test_registry_density_holds_its_quadrature_values(self):
        # the 1024^2 values take 8 MiB; every center at once took 88 MiB
        spec, peak = traced_peak(lambda: simulation.get_density.__wrapped__("comb4"))
        assert spec.normalizer == simulation.get_density("comb4").normalizer
        assert peak <= 12 * 2**20

    def test_a_3d_quadrature_past_the_budget_is_refused_before_it_allocates(self):
        def make():
            with pytest.raises(BudgetError, match="a 1024\\^3 grid holds 1073741824 cells, past the budget of 16777216"):
                simulation.make_mixture("cube", [1.0], [[0.5] * 3], [np.eye(3) * 0.01], [[0.0, 1.0]] * 3)

        _, peak = traced_peak(make)
        assert peak < 2**20


def _random_mixture(rng, box, means_beyond=False):
    """A diagonal component, a diagonal one written with -0.0 off-diagonals
    and a full one (|rho| up to 0.99); the means lie anywhere near the box,
    or all beyond its upper corner."""
    d = len(box)
    lo, width = box[:, 0], box[:, 1] - box[:, 0]
    covariances = []
    for kind in ("diagonal", "negative-zero", "full"):
        sd = width * rng.uniform(0.02, 0.5, d)
        if kind == "full":
            # one-factor correlation rho_ab = l_a l_b is positive definite
            loading = rng.uniform(-0.995, 0.995, d)
            corr = np.outer(loading, loading)
            np.fill_diagonal(corr, 1.0)
            covariances.append(corr * np.outer(sd, sd))
        else:
            cov = np.diag(sd * sd)
            if kind == "negative-zero":
                cov[~np.eye(d, dtype=bool)] = -0.0
            covariances.append(cov)
    offsets = rng.uniform(1.0, 1.5, (3, d)) if means_beyond else rng.uniform(-1.0, 2.0, (3, d))
    return rng.dirichlet(np.ones(3)), lo + width * offsets, np.array(covariances)


class TestMixtureOnGrid:
    @pytest.mark.parametrize(
        "d, resolution",
        [(d, r) for d in (1, 2, 3) for r in (2, 3, 37, 128, 1024) if r < 1024 or d <= 2],
    )
    def test_matches_the_per_cell_pdf_bit_for_bit(self, d, resolution):
        rng = np.random.default_rng(2100 + 10 * d + resolution)
        for means_beyond in (False, True):
            box = np.sort(rng.uniform(-3.0, 3.0, (d, 2)), axis=1)
            weights, means, covariances = _random_mixture(rng, box, means_beyond)
            grid = GridSpec.from_box(box, resolution)
            values = simulation._mixture_on_grid(weights, means, covariances, grid)
            expected = grid_oracle.raw_mixture_pdf(weights, means, covariances, grid.cell_centers())
            np.testing.assert_array_equal(values, expected.reshape(values.shape))

    def test_a_diagonal_component_is_solved_once(self, monkeypatch):
        comb4, pair = simulation.get_density("comb4"), simulation.get_density("anisotropic-pair")
        solve, shapes = np.linalg.solve, []

        def counting(a, b):
            shapes.append(b.shape)
            return solve(a, b)

        monkeypatch.setattr(simulation.np.linalg, "solve", counting)
        grid = GridSpec.unit(2, 1024)
        simulation._mixture_on_grid(comb4.weights, comb4.means, comb4.covariances, grid)
        assert shapes == [(2, 1024)] * 4
        shapes.clear()
        # anisotropic-pair: a tilted ridge, solved cell by cell, and one tight peak
        simulation._mixture_on_grid(pair.weights, pair.means, pair.covariances, grid)
        assert shapes[0] == (2, 1024)
        assert sum(cols for _, cols in shapes[1:]) == grid.cells
        assert min(cols for _, cols in shapes) >= 2


@pytest.fixture()
def rescaled_model(tmp_path):
    rng = np.random.default_rng(20240901)
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in (rng.beta(2, 3, (700, 2)) * 4.0 - 1.0).tolist()))
    model = tmp_path / "m.json"
    assert main(["fit", str(pts), "-o", str(model), "--wavelet", "db2", "--J", "1", "--rescale", "--pad", "0.1"]) == 0
    return model, pts


class TestEvalWalk:
    @pytest.mark.parametrize("source", ["grid", "points"])
    def test_data_coords_bytes(self, rescaled_model, tmp_path, source):
        model_json, pts_csv = rescaled_model
        out = tmp_path / "out.csv"
        args = ["--grid", "70"] if source == "grid" else [str(pts_csv)]
        assert main(["eval", str(model_json), *args, "--data-coords", "-o", str(out)]) == 0
        model, extras = model_from_file(model_json)
        affine = AffineMap(**{key: np.asarray(val) for key, val in extras["affine"].items()})
        if source == "grid":
            # with --data-coords the grid lies over the data's box
            pts = GridSpec.from_box(affine.inverse(np.asarray(extras["domain"]).T).T, 70).cell_centers()
        else:
            pts = np.loadtxt(pts_csv, delimiter=",", skiprows=1)
        g = model.reconstruct(affine.forward(pts))
        handle = io.StringIO()
        csv_oracle.field_csv(
            handle, pts, [g, model._density_from(g) * affine.jacobian], "x1,x2,g,f",
            f"# wavedens {__version__} eval; model={model_json}",
        )
        assert out.read_bytes() == handle.getvalue().encode("utf-8")

    def test_grid_eval_holds_g_alone(self, rescaled_model, tmp_path):
        # the centers, g and f of every cell took about 4 * 8 R^2 bytes
        model_json, _ = rescaled_model
        resolution = 512
        out = tmp_path / "grid.csv"
        code, peak = traced_peak(lambda: main(["eval", str(model_json), "--grid", str(resolution), "-o", str(out)]))
        assert code == 0
        assert peak <= 8 * resolution**2 + 2 * estimator._CHUNK_BYTES

    def test_fit_grid_builds_the_field_in_place(self, tmp_path):
        # the field and one block's contracted tensor; a scaled copy of the
        # tensor and an unsquared copy of the field came on top at 6.8 MiB
        rng = np.random.default_rng(20240901)
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rng.beta(2, 3, (700, 2)).tolist()))
        resolution = 512
        args = ["fit", str(pts), "-o", str(tmp_path / "m.json"), "--wavelet", "db6", "--J", "3", "--grid", str(resolution)]
        code, peak = traced_peak(lambda: main(args))
        assert code == 0
        assert peak <= 2 * 8 * resolution**2 + 2 * estimator._CHUNK_BYTES
