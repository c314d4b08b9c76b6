"""Model assembly: SE layer, interaction blocks, end-to-end forward, init,
checkpoints, and cross-person information flow. Person-swap symmetry and the
end-to-end gradient check are verify battery checks (`model.*`)."""

import io
import math

import numpy as np
import pytest

import igformer.tensor as T
from igformer import model as M
from igformer.errors import ConfigError, ParseError
from igformer.graphs import build_interaction_graphs
from igformer.skeleton import InteractionSample, SkeletonSequence, builtin_part_map
from igformer.spm import SpmConfig


def tiny_cfg(**kw):
    defaults = dict(num_classes=3, D=8, h=2, N=2,
                    spm=SpmConfig(P=4, stride=4, padding=0, T=16))
    defaults.update(kw)
    return M.ModelConfig(**defaults)


def random_sample(rng, t=16, j=15, label=0):
    return InteractionSample(SkeletonSequence(rng.normal(size=(t, j, 3))),
                             SkeletonSequence(rng.normal(size=(t, j, 3))),
                             label=label)


def sample_with_graphs(rng, cfg, label=0, j=15):
    part_map = builtin_part_map(j)
    sample = random_sample(rng, t=cfg.spm.T, j=j, label=label)
    graphs = build_interaction_graphs(sample, part_map, cfg.spm, k=cfg.dsig.k)
    return sample, graphs, part_map


class TestSeLayer:
    def se_params(self, rng, dim, inner, zero=False):
        def mk(*shape):
            data = np.zeros(shape) if zero else rng.normal(scale=0.1, size=shape)
            return T.Tensor(data)
        ln = lambda: M.LayerNormParams(mk(dim), mk(dim))
        return M.SeParams(ln1=ln(), wq=mk(dim, dim), bq=mk(dim), wk=mk(dim, dim),
                          bk=mk(dim), wv=mk(dim, dim), bv=mk(dim), wo=mk(dim, dim),
                          bo=mk(dim), ln2=ln(), ffn=M.FfnParams(
                              mk(dim, inner), mk(inner), mk(inner, dim), mk(dim)))

    def test_zero_weights_zero_input_zero_output(self):
        rng = np.random.default_rng(0)
        p = self.se_params(rng, 4, 8, zero=True)
        out = M.se_layer(T.Tensor(np.zeros((5, 4))), p, h=2)
        assert np.array_equal(out.data, np.zeros((5, 4)))

    def test_shape_contract(self):
        rng = np.random.default_rng(1)
        p = self.se_params(rng, 6, 12)
        for m in (1, 3, 10):
            out = M.se_layer(T.Tensor(rng.normal(size=(m, 6))), p, h=3)
            assert out.shape == (m, 6)

    def test_internal_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        dim, h = 6, 2
        d = dim // h
        p = self.se_params(rng, dim, 12)
        x = T.Tensor(rng.normal(size=(5, dim)))
        normed = T.layer_norm(x, p.ln1.gamma, p.ln1.beta)
        q = T.linear(normed, p.wq, p.bq)
        k = T.linear(normed, p.wk, p.bk)
        for i in range(h):
            qi = T.slice_axis(q, 1, i * d, (i + 1) * d)
            ki = T.slice_axis(k, 1, i * d, (i + 1) * d)
            attn = T.softmax_rows(T.matmul(qi, T.transpose(ki)) * (1 / math.sqrt(d)))
            assert np.abs(attn.data.sum(axis=1) - 1.0).max() < 1e-6


class TestItb:
    def test_no_gimsa_isolates_persons(self):
        rng = np.random.default_rng(3)
        cfg = tiny_cfg(mode="no_gimsa")
        model = M.init_params(cfg, seed=1)
        sample, graphs, part_map = sample_with_graphs(rng, cfg)
        h_m = model.tokenize(sample.person_a).tokens
        h_n = model.tokenize(sample.person_b).tokens
        out_m, _ = M.itb_forward(h_m, h_n, graphs, model.itbs[0], cfg, 5, cfg.spm.L)
        # perturb person n arbitrarily much: person m's branch must not move
        h_n2 = T.Tensor(h_n.data + rng.normal(size=h_n.shape))
        out_m2, _ = M.itb_forward(h_m, h_n2, graphs, model.itbs[0], cfg, 5, cfg.spm.L)
        assert np.array_equal(out_m.data, out_m2.data)

    def test_full_mode_cross_sensitivity(self):
        rng = np.random.default_rng(4)
        cfg = tiny_cfg(mode="full")
        model = M.init_params(cfg, seed=1)
        sample, graphs, _ = sample_with_graphs(rng, cfg)
        h_m = model.tokenize(sample.person_a).tokens
        h_n = T.Tensor(model.tokenize(sample.person_b).tokens.data, requires_grad=True)
        out_m, _ = M.itb_forward(h_m, h_n, graphs, model.itbs[0], cfg, 5, cfg.spm.L)
        out_m.sum().backward()
        assert h_n.grad is not None and np.abs(h_n.grad).max() > 0

    def test_no_gimsa_zero_cross_gradient(self):
        rng = np.random.default_rng(5)
        cfg = tiny_cfg(mode="no_gimsa")
        model = M.init_params(cfg, seed=1)
        sample, graphs, _ = sample_with_graphs(rng, cfg)
        h_m = model.tokenize(sample.person_a).tokens
        h_n = T.Tensor(model.tokenize(sample.person_b).tokens.data, requires_grad=True)
        out_m, _ = M.itb_forward(h_m, h_n, graphs, model.itbs[0], cfg, 5, cfg.spm.L)
        out_m.sum().backward()
        assert h_n.grad is None  # no path at all from person n into person m

    def test_stacking_preserves_shape(self):
        rng = np.random.default_rng(6)
        cfg = tiny_cfg(N=3)
        model = M.init_params(cfg, seed=2)
        sample, graphs, _ = sample_with_graphs(rng, cfg)
        h_m = model.tokenize(sample.person_a).tokens
        h_n = model.tokenize(sample.person_b).tokens
        m_tokens = h_m.shape
        for p in model.itbs:
            h_m, h_n = M.itb_forward(h_m, h_n, graphs, p, cfg, 5, cfg.spm.L)
            assert h_m.shape == m_tokens and h_n.shape == m_tokens


class TestForward:
    def test_paper_scale_token_count_and_logit_length(self):
        # default tokenizer geometry at J=25 yields 125 tokens per person
        cfg = M.ModelConfig(num_classes=11, D=8, h=2, N=1,
                            spm=SpmConfig())  # T=256, P=16, stride=10, padding=2
        part_map = builtin_part_map(25)
        model = M.init_params(cfg, seed=0, part_map=part_map)
        rng = np.random.default_rng(7)
        sample = random_sample(rng, t=256, j=25)
        graphs = build_interaction_graphs(sample, part_map, cfg.spm, k=15)
        assert graphs.M == 125
        bpt = model.tokenize(sample.person_a)
        assert bpt.M == 125
        logits = model.forward(sample, graphs)
        assert logits.shape == (1, 11)

    def test_duplicated_person_is_swap_invariant(self):
        rng = np.random.default_rng(9)
        cfg = tiny_cfg(tie_person_branches=True)
        model = M.init_params(cfg, seed=4)
        a = SkeletonSequence(rng.normal(size=(16, 15, 3)))
        sample = InteractionSample(a, SkeletonSequence(a.coords.copy()), label=0)
        part_map = builtin_part_map(15)
        graphs = build_interaction_graphs(sample, part_map, cfg.spm, k=3)
        swapped = InteractionSample(sample.person_b, sample.person_a, label=0)
        assert np.array_equal(model.forward(sample, graphs).data,
                              model.forward(swapped, graphs.swapped()).data)

    def test_untied_swap_differs_in_general(self):
        rng = np.random.default_rng(10)
        cfg = tiny_cfg(tie_person_branches=False)
        model = M.init_params(cfg, seed=5)
        sample, graphs, _ = sample_with_graphs(rng, cfg)
        swapped = InteractionSample(sample.person_b, sample.person_a, label=0)
        assert not np.array_equal(model.forward(sample, graphs).data,
                                  model.forward(swapped, graphs.swapped()).data)

    def test_joint_translation_same_dsig_different_logits(self):
        rng = np.random.default_rng(11)
        cfg = tiny_cfg()
        model = M.init_params(cfg, seed=6)
        sample, graphs, part_map = sample_with_graphs(rng, cfg)
        v = np.array([0.4, -0.2, 0.9])
        moved = InteractionSample(SkeletonSequence(sample.person_a.coords + v),
                                  SkeletonSequence(sample.person_b.coords + v), label=0)
        graphs2 = build_interaction_graphs(moved, part_map, cfg.spm, k=cfg.dsig.k)
        assert np.array_equal(graphs.dsig_ab, graphs2.dsig_ab)
        assert not np.array_equal(model.forward(sample, graphs).data,
                                  model.forward(moved, graphs2).data)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(12)
        cfg = tiny_cfg()
        model = M.init_params(cfg, seed=7)
        sample, graphs, _ = sample_with_graphs(rng, cfg)
        a = model.forward(sample, graphs)
        b = model.forward(sample, graphs)
        assert np.array_equal(a.data, b.data)

    def test_label_range_checked(self):
        rng = np.random.default_rng(13)
        cfg = tiny_cfg()
        model = M.init_params(cfg, seed=8)
        sample, graphs, _ = sample_with_graphs(rng, cfg, label=7)
        with pytest.raises(ConfigError):
            model.loss(sample, graphs)

    def test_graph_size_mismatch(self):
        rng = np.random.default_rng(14)
        cfg = tiny_cfg()
        other = tiny_cfg(spm=SpmConfig(P=4, stride=2, padding=0, T=16))
        model = M.init_params(cfg, seed=9)
        sample, graphs, _ = sample_with_graphs(rng, other)
        with pytest.raises(ConfigError):
            model.forward(sample, graphs)


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = tiny_cfg()
        m1 = M.init_params(cfg, seed=42)
        m2 = M.init_params(cfg, seed=42)
        for name, t in m1.named_parameters().items():
            assert np.array_equal(t.data, m2.named_parameters()[name].data), name

    def test_different_seed_differs(self):
        cfg = tiny_cfg()
        m1 = M.init_params(cfg, seed=1)
        m2 = M.init_params(cfg, seed=2)
        assert not np.array_equal(m1.conv_kernel.data, m2.conv_kernel.data)

    def test_param_count_matches_closed_form(self):
        for kw in ({}, {"tie_person_branches": True}, {"N": 3, "h": 4},
                   {"num_classes": 7}):
            cfg = tiny_cfg(**kw)
            model = M.init_params(cfg, seed=0)
            total = sum(t.data.size for t in model.named_parameters().values())
            assert total == M.expected_param_count(cfg)

    def test_alpha_starts_at_exactly_one(self):
        model = M.init_params(tiny_cfg(), seed=0)
        for itb in model.itbs:
            for a in itb.gi.alpha:
                assert float(a.data) == 1.0

    def test_weights_truncated_at_two_std(self):
        model = M.init_params(tiny_cfg(), seed=0)
        w = model.named_parameters()["itb0.se.attn.wq"].data
        fan_in_std = 1.0 / math.sqrt(w.shape[0])
        assert np.abs(w).max() <= 2 * fan_in_std
        assert w.std() > 0
        pos = model.named_parameters()["spm.posenc"].data
        assert np.abs(pos).max() <= 2 * M.TRUNC_STD

    def test_mixer_starts_near_identity(self):
        model = M.init_params(tiny_cfg(), seed=0)
        wm = model.named_parameters()["itb0.gi.wm"].data
        assert np.abs(np.diag(wm) - 1.0).max() <= 2 / math.sqrt(wm.shape[0])


class TestCheckpoint:
    def test_round_trip(self):
        cfg = tiny_cfg()
        model = M.init_params(cfg, seed=10)
        blob = M.save_checkpoint(model, digest="abc123")
        digest, params = M.load_checkpoint(io.BytesIO(blob))
        assert digest == "abc123"
        restored = M.restore_params(cfg, params)
        for name, t in model.named_parameters().items():
            assert np.array_equal(t.data, restored.named_parameters()[name].data)

    def test_loads_each_array_into_its_own_buffer_from_an_open_file(self, tmp_path):
        model = M.init_params(tiny_cfg(), seed=3)
        path = tmp_path / "model.igfc"
        path.write_bytes(M.save_checkpoint(model, "d") + b"\0")
        with open(path, "rb") as fh, pytest.raises(ParseError, match="1 trailing bytes"):
            M.load_checkpoint(fh)
        path.write_bytes(M.save_checkpoint(model, "d"))
        with open(path, "rb") as fh:
            digest, params = M.load_checkpoint(fh)
        assert digest == "d"
        for name, t in model.named_parameters().items():
            arr = params[name]
            assert arr.flags.owndata and arr.flags.aligned and arr.flags.writeable
            assert arr.tobytes() == t.data.tobytes()

    def test_mismatched_structure_rejected(self):
        model = M.init_params(tiny_cfg(), seed=0)
        _, params = M.load_checkpoint(io.BytesIO(M.save_checkpoint(model, "x")))
        with pytest.raises(ConfigError):
            M.restore_params(tiny_cfg(N=3), params)

    def test_byte_determinism(self):
        cfg = tiny_cfg()
        b1 = M.save_checkpoint(M.init_params(cfg, seed=5), "d")
        b2 = M.save_checkpoint(M.init_params(cfg, seed=5), "d")
        assert b1 == b2
