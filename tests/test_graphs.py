"""Distance graphs: hand cases, loop oracles of each stage, and invariants.
The full-pipeline brute-force oracle is the verify battery check
`dsig.brute-force-oracle`."""

import io
import math

import numpy as np
import pytest

from igformer import graphs as G
from igformer.errors import ConfigError, ParseError
from igformer.skeleton import InteractionSample, SkeletonSequence, builtin_part_map
from igformer.spm import SpmConfig
from igformer.verify import _brute_force_dsig


def random_sample(rng, t=40, j=15):
    a = SkeletonSequence(rng.normal(size=(t, j, 3)))
    b = SkeletonSequence(rng.normal(size=(t, j, 3)))
    return InteractionSample(a, b, label=0)


TINY = SpmConfig(P=8, stride=4, padding=2, T=40)


class TestCentroids:
    def map2(self):
        return builtin_part_map(15)

    def test_midpoint(self):
        coords = np.zeros((1, 15, 3))
        coords[0, 3] = [1, 0, 0]
        coords[0, 4] = [3, 0, 0]
        coords[0, 5] = [2, 0, 0]
        seq = SkeletonSequence(coords)
        cents = G.part_centroids(seq, self.map2())
        assert np.allclose(cents[0][0], [2, 0, 0])

    def test_single_joint_part(self):
        from igformer.skeleton import BodyPartMap
        m = BodyPartMap((("left_arm", (0,)), ("right_arm", (1,)),
                         ("left_leg", (2,)), ("right_leg", (3,)), ("torso", (4,))),
                        joint_count=5)
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(3, 5, 3))
        cents = G.part_centroids(SkeletonSequence(coords), m)
        assert np.array_equal(cents[0], coords[:, 0, :])

    def test_translation_moves_centroid(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(4, 15, 3))
        v = np.array([0.3, -0.2, 1.0])
        c0 = G.part_centroids(SkeletonSequence(coords), self.map2())
        c1 = G.part_centroids(SkeletonSequence(coords + v), self.map2())
        for a, b in zip(c0, c1):
            assert np.allclose(b, a + v, atol=1e-12)


class TestDownsample:
    def test_constant_trajectory(self):
        traj = np.tile([1.0, 2.0, 3.0], (40, 1))
        steps = G.downsample_to_steps(traj, TINY)
        assert np.allclose(steps, [1.0, 2.0, 3.0])

    def test_whole_window_mean(self):
        cfg = SpmConfig(P=8, stride=1, padding=0, T=8)
        rng = np.random.default_rng(2)
        traj = rng.normal(size=(8, 3))
        steps = G.downsample_to_steps(traj, cfg)
        assert steps.shape == (1, 3)
        assert np.allclose(steps[0], traj.mean(axis=0), atol=1e-15)

    def test_linear_ramp_matches_window_oracle(self):
        traj = np.linspace(0, 1, 40)[:, None] * np.array([1.0, -2.0, 0.5])
        steps = G.downsample_to_steps(traj, TINY)
        for j in range(TINY.L):
            lo = max(0, j * TINY.stride - TINY.padding)
            hi = min(40, j * TINY.stride - TINY.padding + TINY.P)
            want = sum(traj[f] for f in range(lo, hi)) / (hi - lo)
            assert np.abs(steps[j] - want).max() < 1e-12

    def test_frame_count_mismatch(self):
        with pytest.raises(ConfigError):
            G.downsample_to_steps(np.zeros((20, 3)), TINY)


class TestPairwiseDistance:
    def test_3_4_5_triangle(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 4.0, 0.0]])
        assert G.pairwise_distance(a, b)[0, 0] == 5.0

    def test_identical_sequences_zero_diagonal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3))
        assert np.array_equal(np.diag(G.pairwise_distance(x, x)), np.zeros(6))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(10, 3)), rng.normal(size=(10, 3))
        d = G.pairwise_distance(a, b)
        for i in range(10):
            for j in range(10):
                want = math.sqrt(sum((a[i, c] - b[j, c]) ** 2 for c in range(3)))
                assert abs(d[i, j] - want) < 1e-12


class TestKnnThreshold:
    def test_row_sort_case(self):
        A = np.array([[0.5, 0.2, 0.9]])
        assert np.array_equal(G.knn_threshold(A, 2)[0], [1.0, 1.0, 0.0])

    def test_k_equals_m_all_ones(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(size=(6, 6))
        assert np.array_equal(G.knn_threshold(A, 6), np.ones((6, 6)))

    def test_identical_persons_keep_self_edge(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 3))
        dsig = G.knn_threshold(G.pairwise_distance(x, x), 1)
        assert (np.diag(dsig) == 1.0).all()

    def test_ties_included(self):
        A = np.array([[0.1, 0.3, 0.3, 0.7]])
        assert np.array_equal(G.knn_threshold(A, 2)[0], [1.0, 1.0, 1.0, 0.0])

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            G.knn_threshold(np.zeros((3, 3)), 4)


class TestGraphInvariants:
    def test_transpose_symmetry(self):
        rng = np.random.default_rng(7)
        g = G.build_interaction_graphs(random_sample(rng), builtin_part_map(15), TINY, k=5)
        assert np.array_equal(g.A_ab, g.A_ba.T)

    def test_joint_translation_leaves_dsig_unchanged(self):
        rng = np.random.default_rng(8)
        s = random_sample(rng)
        v = np.array([1.5, -0.7, 2.0])
        moved = InteractionSample(SkeletonSequence(s.person_a.coords + v),
                                  SkeletonSequence(s.person_b.coords + v), label=0)
        m = builtin_part_map(15)
        g0 = G.build_interaction_graphs(s, m, TINY, k=5)
        g1 = G.build_interaction_graphs(moved, m, TINY, k=5)
        assert np.array_equal(g0.dsig_ab, g1.dsig_ab)
        assert np.array_equal(g0.dsig_ba, g1.dsig_ba)

    def test_single_person_translation_changes_distances(self):
        rng = np.random.default_rng(9)
        s = random_sample(rng)
        v = np.array([10.0, 0.0, 0.0])
        moved = InteractionSample(SkeletonSequence(s.person_a.coords + v),
                                  s.person_b, label=0)
        m = builtin_part_map(15)
        g0 = G.build_interaction_graphs(s, m, TINY, k=5)
        g1 = G.build_interaction_graphs(moved, m, TINY, k=5)
        assert np.abs(g1.A_ab - g0.A_ab).max() > 1.0

    def test_direction_asymmetry(self):
        # crafted so row-wise and column-wise nearest neighbors differ
        A = np.array([[0.1, 0.2, 5.0],
                      [4.0, 0.3, 0.4],
                      [0.15, 6.0, 0.5]])
        row_knn = G.knn_threshold(A, 1)
        col_knn = G.knn_threshold(A.T, 1)
        assert not np.array_equal(row_knn, col_knn.T)

    def test_row_sums_at_least_k(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            A = rng.uniform(size=(12, 12))
            dsig = G.knn_threshold(A, 4)
            assert (dsig.sum(axis=1) >= 4).all()
            # distinct distances -> exactly k
            assert (dsig.sum(axis=1) == 4).all()


def test_reference_geometry_matches_brute_force_oracle():
    cfg = SpmConfig(P=16, stride=10, padding=2, T=256)
    part_map = builtin_part_map(25)
    s = random_sample(np.random.default_rng(14), t=256, j=25)
    g = G.build_interaction_graphs(s, part_map, cfg, k=15)
    a, b = s.person_a.coords, s.person_b.coords
    dist_ab, dsig_ab = _brute_force_dsig(a, b, part_map, cfg, 15)
    dist_ba, dsig_ba = _brute_force_dsig(b, a, part_map, cfg, 15)
    assert g.M == 125
    assert np.array_equal(g.A_ab, dist_ab) and np.array_equal(g.A_ba, dist_ba)
    assert np.array_equal(g.dsig_ab, dsig_ab) and np.array_equal(g.dsig_ba, dsig_ba)


class TestSidecar:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        g = G.build_interaction_graphs(random_sample(rng), builtin_part_map(15), TINY, k=5)
        m, k, ab, ba = G.read_sidecar(io.BytesIO(G.write_sidecar(g)))
        assert (m, k) == (g.M, 5)
        assert np.array_equal(ab, g.dsig_ab)
        assert np.array_equal(ba, g.dsig_ba)

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            G.read_sidecar(io.BytesIO(b"WHAT" + b"\x00" * 16))

    def test_truncated(self):
        rng = np.random.default_rng(13)
        g = G.build_interaction_graphs(random_sample(rng), builtin_part_map(15), TINY, k=5)
        with pytest.raises(ParseError):
            G.read_sidecar(io.BytesIO(G.write_sidecar(g)[:-1]))
