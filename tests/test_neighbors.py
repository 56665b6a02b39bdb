import math

import numpy as np
import pytest

from wavedens.errors import EstimationError
from wavedens.neighbors import knn_radii, knn_stats, unit_ball_volume, validate_k


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
        stats = knn_stats(np.array([[0.0], [1.0], [3.0]]), 1)
        np.testing.assert_allclose(stats.radii, [1.0, 1.0, 2.0])
        np.testing.assert_allclose(stats.volumes, [2.0, 2.0, 4.0])

    def test_hand_example_k2(self):
        stats = knn_stats(np.array([[0.0], [1.0], [3.0]]), 2)
        np.testing.assert_allclose(stats.radii, [3.0, 2.0, 3.0])

    def test_duplicates_give_zero(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        stats = knn_stats(pts, 1)
        assert stats.radii[0] == 0.0
        assert stats.volumes[0] == 0.0
        assert stats.radii[2] > 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_brute_force(self, d, k):
        rng = np.random.default_rng(100 * d + k)
        pts = rng.random((120, d))
        stats = knn_stats(pts, k)
        np.testing.assert_array_equal(stats.radii, brute_force_radii(pts, k))

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        pts = rng.random((60, 2))
        prev = knn_stats(pts, 1).radii
        for k in range(2, 10):
            cur = knn_stats(pts, k).radii
            assert np.all(cur >= prev)
            prev = cur

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        pts = rng.random((80, 2))
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved = pts @ rot.T + np.array([3.0, -1.5])
        np.testing.assert_allclose(knn_stats(moved, 3).radii, knn_stats(pts, 3).radii, atol=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(12)
        pts = rng.random((50, 3))
        base = knn_stats(pts, 2)
        scaled = knn_stats(2.5 * pts, 2)
        np.testing.assert_allclose(scaled.radii, 2.5 * base.radii, rtol=1e-12)
        np.testing.assert_allclose(scaled.volumes, 2.5**3 * base.volumes, rtol=1e-12)

    def test_errors(self):
        pts = np.random.default_rng(0).random((5, 2))
        with pytest.raises(EstimationError):
            knn_stats(pts, 5)
        with pytest.raises(EstimationError):
            knn_stats(pts[:1], 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            knn_stats(np.array([[0.0, np.nan], [1.0, 1.0]]), 1)


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
    both = knn_radii(pts, (1, 4))
    assert np.any(both[0] == 0.0)
    for k, radii in zip((1, 4), both):
        assert np.array_equal(radii, chunked_brute_force_radii(pts, k))
        assert knn_stats(pts[perm], k).radii.tobytes() == radii[perm].tobytes()


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
