import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import wavedens
from dict_oracle import radii_and_volumes
from wavedens import neighbors
from wavedens.classical import classical_coefficients
from wavedens.cli import main
from wavedens.errors import EstimationError
from wavedens.estimator import EstimatorConfig, estimate_coefficient_sets, estimate_coefficients, fit_model
from wavedens.neighbors import knn_stats, unit_ball_volume, validate_k
from wavedens.simulation import exp_law_check, moment_identity_check


def brute_force_radii(points, k):
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    out = np.empty(n)
    for i in range(n):
        dists = np.sort(np.linalg.norm(pts - pts[i], axis=1))
        out[i] = dists[k]  # dists[0] is the self distance 0
    return out


class TestUnitBallVolume:
    def test_low_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-14)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestKnnStats:
    def test_hand_example_k1(self):
        radii, volumes = radii_and_volumes(np.array([[0.0], [1.0], [3.0]]), 1)
        np.testing.assert_allclose(radii, [1.0, 1.0, 2.0])
        np.testing.assert_allclose(volumes, [2.0, 2.0, 4.0])

    def test_hand_example_k2(self):
        (radii,) = knn_stats(np.array([[0.0], [1.0], [3.0]]), [2])
        np.testing.assert_allclose(radii, [3.0, 2.0, 3.0])

    def test_duplicates_give_zero(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        radii, volumes = radii_and_volumes(pts, 1)
        assert radii[0] == 0.0
        assert volumes[0] == 0.0
        assert radii[2] > 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_brute_force(self, d, k):
        rng = np.random.default_rng(100 * d + k)
        pts = rng.random((120, d))
        (radii,) = knn_stats(pts, [k])
        np.testing.assert_array_equal(radii, brute_force_radii(pts, k))

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        pts = rng.random((60, 2))
        radii = knn_stats(pts, range(1, 10))
        assert np.all(radii[1:] >= radii[:-1])

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        pts = rng.random((80, 2))
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved = pts @ rot.T + np.array([3.0, -1.5])
        np.testing.assert_allclose(knn_stats(moved, [3]), knn_stats(pts, [3]), atol=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(12)
        pts = rng.random((50, 3))
        base_radii, base_volumes = radii_and_volumes(pts, 2)
        radii, volumes = radii_and_volumes(2.5 * pts, 2)
        np.testing.assert_allclose(radii, 2.5 * base_radii, rtol=1e-12)
        np.testing.assert_allclose(volumes, 2.5**3 * base_volumes, rtol=1e-12)

    def test_errors(self):
        pts = np.random.default_rng(0).random((5, 2))
        with pytest.raises(EstimationError):
            knn_stats(pts, [1, 5])
        with pytest.raises(EstimationError):
            knn_stats(pts[:1], [1])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            knn_stats(np.array([[0.0, np.nan], [1.0, 1.0]]), [1])


def lattice_with_duplicates(n, d, seed):
    """Points on the 1/256 lattice, so every squared distance is exact, with
    the last 10% repeating the first: many tied and zero radii."""
    pts = np.random.default_rng(seed).integers(0, 256, size=(n, d)) / 256
    pts[-(n // 10) :] = pts[: n // 10]
    return pts


def chunked_brute_force_radii(pts, k, rows=256):
    """The k-th order statistic of each point's distances to the others."""
    out = np.empty(len(pts))
    for start in range(0, len(pts), rows):
        diff = pts[start : start + rows, None, :] - pts[None, :, :]
        out[start : start + rows] = np.partition(np.sqrt((diff * diff).sum(axis=-1)), k, axis=1)[:, k]
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_leaf_order_queries_land_on_their_own_rows(d):
    # thousands of points: a tree of many leaves, queried in several slices
    pts = lattice_with_duplicates(3000, d, seed=d)
    perm = np.random.default_rng(10 + d).permutation(len(pts))
    both = knn_stats(pts, (1, 4))
    assert np.any(both[0] == 0.0)
    for k, radii in zip((1, 4), both):
        assert np.array_equal(radii, chunked_brute_force_radii(pts, k))
        assert knn_stats(pts[perm], [k]).tobytes() == radii[perm].tobytes()


class TestValidateK:
    def test_small_k_ok(self):
        verdict = validate_k(1024, 1)
        assert verdict.ok
        assert verdict.message is None

    def test_large_k_warns(self):
        verdict = validate_k(100, 64)
        assert not verdict.ok
        assert "k=64" in verdict.message
        # large-k asymptotics: statistic approximately k
        assert verdict.statistic == pytest.approx(64.0, rel=0.02)

    def test_extreme_k_is_warning_not_error(self):
        verdict = validate_k(16, 15)
        assert not verdict.ok
        assert verdict.message is not None

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            validate_k(10, 10)


def counted_knn_stats(monkeypatch):
    """Wrap ``knn_stats`` at every ``wavedens.*`` binding, as a span tracer
    does, and return the list its calls append to."""
    calls = []
    original = neighbors.knn_stats

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "wavedens" or name.startswith("wavedens.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.filterwarnings("ignore::wavedens.errors.KConsistencyWarning")
def test_every_caller_runs_the_one_query(monkeypatch, tmp_path):
    pts = np.random.default_rng(6).random((64, 2))
    cfg = EstimatorConfig(wavelet_order=2, j0=0, J=1, k=1)
    points_csv, audit = tmp_path / "pts.csv", tmp_path / "knn.csv"
    points_csv.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    calls = counted_knn_stats(monkeypatch)
    expected = [
        (lambda: fit_model(pts, cfg), 1),
        (lambda: estimate_coefficients(pts, cfg), 1),
        (lambda: estimate_coefficient_sets(pts, cfg, [1, 2, 4, 8]), 1),
        (lambda: classical_coefficients(pts, cfg), 0),
        (lambda: main(["check", "knn", str(points_csv), "--k", "3", "-o", str(audit)]), 1),
        (lambda: moment_identity_check(1.0, 2, 50, 3, np.random.default_rng(1)), 3),
        (lambda: exp_law_check(50, 4, np.random.default_rng(2)), 4),
    ]
    for call, count in expected:
        calls.clear()
        call()
        assert len(calls) == count


def tree_builders(source: str) -> set:
    """The top-level functions that name ``cKDTree`` (None: module level)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if owner is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            if (
                isinstance(child, ast.Name) and child.id == "cKDTree"
                or isinstance(child, ast.Attribute) and child.attr == "cKDTree"
                or isinstance(child, ast.alias) and child.name == "cKDTree"
            ):
                found.add(owner)
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_only_knn_stats_builds_a_tree():
    builders = {
        path.name: tree_builders(path.read_text(encoding="utf-8"))
        for path in sorted(Path(wavedens.__file__).parent.glob("*.py"))
    }
    assert {name: found for name, found in builders.items() if found} == {"neighbors.py": {None, "knn_stats"}}
