"""Tokenizer: partition semantics, geometry, forward, shared projection. The
time-major layout is a verify battery check (`spm.layout.time-major-roundtrip`)."""

import numpy as np
import pytest

import igformer.tensor as T
from igformer import spm
from igformer.errors import ConfigError
from igformer.skeleton import BodyPartMap, SkeletonSequence, builtin_part_map
from igformer.verify import window_oracle


def make_seq(rng, t=16, j=15):
    return SkeletonSequence(rng.normal(size=(t, j, 3)))


class TestPartition:
    def test_sbu_part_shapes(self):
        rng = np.random.default_rng(0)
        seq = make_seq(rng, t=8)
        parts = spm.partition(seq, builtin_part_map(15))
        assert [p.shape for p in parts] == [(8, 3, 3)] * 5

    def test_single_frame(self):
        rng = np.random.default_rng(1)
        parts = spm.partition(make_seq(rng, t=1), builtin_part_map(15))
        assert all(p.shape[0] == 1 for p in parts)

    def test_selection_in_map_order(self):
        rng = np.random.default_rng(2)
        seq = make_seq(rng)
        m1 = BodyPartMap((("left_arm", (3, 4, 5)), ("right_arm", (6, 7, 8)),
                          ("left_leg", (9, 10, 11)), ("right_leg", (12, 13, 14)),
                          ("torso", (0, 1, 2))), joint_count=15)
        m2 = BodyPartMap((("left_arm", (5, 3, 4)), ("right_arm", (6, 7, 8)),
                          ("left_leg", (9, 10, 11)), ("right_leg", (12, 13, 14)),
                          ("torso", (0, 1, 2))), joint_count=15)
        p1 = spm.partition(seq, m1)
        p2 = spm.partition(seq, m2)
        assert np.array_equal(p2[0], p1[0][:, [2, 0, 1], :])
        for a, b in zip(p1[1:], p2[1:]):
            assert np.array_equal(a, b)

    def test_map_size_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError):
            spm.partition(make_seq(rng, j=25), builtin_part_map(15))


class TestGeometry:
    def test_paper_scale_defaults(self):
        cfg = spm.SpmConfig()
        assert (cfg.T, cfg.P, cfg.stride, cfg.padding) == (256, 16, 10, 2)
        assert cfg.L == 25
        assert cfg.M(5) == 125

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ConfigError):
            spm.SpmConfig(P=32, stride=10, padding=0, T=16)


def tiny_setup(rng, cfg, D, j=15):
    part_map = builtin_part_map(j)
    kernel = T.Tensor(rng.normal(scale=0.1, size=(D, cfg.P, cfg.P, 3)), requires_grad=True)
    bias = T.Tensor(np.zeros(D), requires_grad=True)
    return part_map, kernel, bias


class TestForward:
    def test_default_geometry_yields_125_tokens(self):
        rng = np.random.default_rng(5)
        cfg = spm.SpmConfig()
        part_map, kernel, bias = tiny_setup(rng, cfg, D=4)
        seq = SkeletonSequence(rng.normal(size=(256, 15, 3)))
        bpt = spm.spm_forward(seq, part_map, cfg, kernel, bias)
        assert bpt.M == 125
        assert bpt.tokens.shape == (125, 4)

    def test_zero_input_zero_bias_gives_zero_tokens(self):
        rng = np.random.default_rng(6)
        cfg = spm.SpmConfig(P=4, stride=4, padding=0, T=16)
        part_map, kernel, bias = tiny_setup(rng, cfg, D=3)
        seq = SkeletonSequence(np.zeros((16, 15, 3)))
        bpt = spm.spm_forward(seq, part_map, cfg, kernel, bias)
        assert np.array_equal(bpt.tokens.data, np.zeros_like(bpt.tokens.data))

    def test_single_part_single_window(self):
        rng = np.random.default_rng(7)
        cfg = spm.SpmConfig(P=4, stride=1, padding=0, T=4)
        one_part = BodyPartMap((("all", tuple(range(6))),), joint_count=6)
        seq = SkeletonSequence(rng.normal(size=(4, 6, 3)))
        kernel = T.Tensor(rng.normal(size=(2, 4, 4, 3)))
        bias = T.Tensor(rng.normal(size=2))
        bpt = spm.spm_forward(seq, one_part, cfg, kernel, bias)
        assert bpt.M == 1
        want = window_oracle(seq.coords, cfg, 0, kernel.data, bias.data)
        assert np.allclose(bpt.tokens.data[0], want, atol=1e-12)

    def test_projection_shared_across_parts_and_persons(self):
        # a single kernel/bias pair receives gradient from every part of both persons
        rng = np.random.default_rng(9)
        cfg = spm.SpmConfig(P=4, stride=4, padding=0, T=8)
        part_map, kernel, bias = tiny_setup(rng, cfg, D=3)
        seq_a = SkeletonSequence(rng.normal(size=(8, 15, 3)))
        seq_b = SkeletonSequence(rng.normal(size=(8, 15, 3)))
        out_a = spm.spm_forward(seq_a, part_map, cfg, kernel, bias)
        out_b = spm.spm_forward(seq_b, part_map, cfg, kernel, bias)
        (out_a.tokens.sum() + out_b.tokens.sum()).backward()
        assert kernel.grad is not None and np.abs(kernel.grad).max() > 0
        # gradient of sum wrt bias counts every token of both persons
        assert np.allclose(bias.grad, np.full(3, 2 * out_a.M))

    def test_one_tape_node_between_projection_and_tokens(self):
        rng = np.random.default_rng(11)
        cfg = spm.SpmConfig(P=4, stride=4, padding=0, T=8)
        part_map, kernel, bias = tiny_setup(rng, cfg, D=3)
        tokens = spm.spm_forward(make_seq(rng, t=8), part_map, cfg, kernel, bias).tokens
        assert tokens.requires_grad
        assert [id(p) for p in tokens._parents] == [id(kernel), id(bias)]

    def test_unpadded_sequence_rejected(self):
        rng = np.random.default_rng(10)
        cfg = spm.SpmConfig(P=4, stride=4, padding=0, T=16)
        part_map, kernel, bias = tiny_setup(rng, cfg, D=3)
        with pytest.raises(ConfigError):
            spm.spm_forward(SkeletonSequence(np.zeros((8, 15, 3))), part_map, cfg, kernel, bias)


class TestPositional:
    def setup_bpt(self, rng):
        tokens = T.Tensor(rng.normal(size=(10, 4)))
        return spm.BptSequence(tokens, B=5, L=2)

    def test_zero_table_is_identity(self):
        rng = np.random.default_rng(12)
        bpt = self.setup_bpt(rng)
        out = spm.add_positional(bpt, T.Tensor(np.zeros((10, 4))))
        assert np.array_equal(out.tokens.data, bpt.tokens.data)

    def test_zero_tokens_give_table(self):
        rng = np.random.default_rng(13)
        pos = T.Tensor(rng.normal(size=(10, 4)))
        bpt = spm.BptSequence(T.Tensor(np.zeros((10, 4))), B=5, L=2)
        out = spm.add_positional(bpt, pos)
        assert np.array_equal(out.tokens.data, pos.data)

    def test_shared_table_for_equal_inputs(self):
        rng = np.random.default_rng(14)
        pos = T.Tensor(rng.normal(size=(10, 4)))
        tokens = rng.normal(size=(10, 4))
        a = spm.add_positional(spm.BptSequence(T.Tensor(tokens), B=5, L=2), pos)
        b = spm.add_positional(spm.BptSequence(T.Tensor(tokens.copy()), B=5, L=2), pos)
        assert np.array_equal(a.tokens.data, b.tokens.data)
