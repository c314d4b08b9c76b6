"""GI-MSA: context means, semantic graph, fusion, heads, gradients, modes. The
sdig elementwise oracle and person-swap equivariance are verify battery checks
(`gimsa.*`)."""

import math

import numpy as np
import pytest

import igformer.tensor as T
from igformer import attention as A
from igformer.errors import ConfigError
from igformer.graphs import InteractionGraphs, knn_threshold, pairwise_distance


def make_graphs(rng, m, k=2):
    a = pairwise_distance(rng.normal(size=(m, 3)), rng.normal(size=(m, 3)))
    return InteractionGraphs(a, a.T.copy(), knn_threshold(a, k),
                             knn_threshold(a.T.copy(), k), k)


def make_params(rng, h, d, tied=False, requires_grad=True):
    dim = h * d
    def mat(*shape):
        return T.Tensor(rng.normal(scale=0.3, size=shape), requires_grad=requires_grad)
    wm = mat(dim, dim)
    return A.GiMsaParams(
        wq=[mat(d, d) for _ in range(h)],
        wk=[mat(d, d) for _ in range(h)],
        wv=[mat(d, d) for _ in range(h)],
        alpha=[T.Tensor(1.0, requires_grad=requires_grad) for _ in range(h)],
        wm=wm,
        wn=wm if tied else mat(dim, dim),
    )


class TestContexts:
    def test_hand_means(self):
        # B=2, L=2, d=1, time-major tokens [1, 3, 5, 7]
        H = T.Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(4, 1))
        tc, sc = A.contexts(H, B=2, L=2)
        assert np.array_equal(tc.data[:, 0], [3.0, 5.0, 3.0, 5.0])
        assert np.array_equal(sc.data[:, 0], [2.0, 2.0, 6.0, 6.0])

    def test_constant_sequence(self):
        H = T.Tensor(np.full((6, 3), 2.5))
        tc, sc = A.contexts(H, B=3, L=2)
        assert np.allclose(tc.data, 2.5) and np.allclose(sc.data, 2.5)

    def test_single_part_spatial_context_is_identity(self):
        rng = np.random.default_rng(0)
        H = T.Tensor(rng.normal(size=(4, 2)))
        _, sc = A.contexts(H, B=1, L=4)
        assert np.array_equal(sc.data, H.data)

    def test_layout_mismatch(self):
        with pytest.raises(Exception):
            A.contexts(T.Tensor(np.zeros((5, 2))), B=2, L=2)


class TestSdig:
    def test_scalar_case(self):
        # M=1, d=1, unit weights: tc = sc = key input, key = 3x input
        h_me = T.Tensor([[1.0]])
        h_ne = T.Tensor([[2.0]])
        one = T.Tensor([[1.0]])
        out = A.sdig(h_me, h_ne, one, one, B=1, L=1, scale=1.0)
        assert np.allclose(out.data, [[6.0]])

    def test_zero_query(self):
        rng = np.random.default_rng(1)
        h_ne = T.Tensor(rng.normal(size=(4, 2)))
        w = T.Tensor(rng.normal(size=(2, 2)))
        out = A.sdig(T.Tensor(np.zeros((4, 2))), h_ne, w, w, B=2, L=2, scale=math.sqrt(2))
        assert np.array_equal(out.data, np.zeros((4, 4)))

class TestFuseGraphs:
    def test_binary_row_softmax(self):
        r = A.fuse_graphs(np.array([[1.0, 0.0]]), T.Tensor(np.zeros((1, 2))),
                          T.Tensor(0.0))
        e = math.e
        assert np.allclose(r.data, [[e / (e + 1), 1 / (e + 1)]])

    def test_alpha_zero_ignores_semantic_graph(self):
        rng = np.random.default_rng(3)
        dsig = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
        s1 = T.Tensor(rng.normal(size=(4, 4)))
        s2 = T.Tensor(rng.normal(size=(4, 4)))
        zero = T.Tensor(0.0)
        assert np.array_equal(A.fuse_graphs(dsig, s1, zero).data,
                              A.fuse_graphs(dsig, s2, zero).data)

    def test_zero_dsig_pure_semantic(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(3, 3))
        alpha = T.Tensor(1.7)
        r = A.fuse_graphs(np.zeros((3, 3)), T.Tensor(s), alpha)
        want = T.softmax_rows(T.Tensor(1.7 * s)).data
        assert np.allclose(r.data, want, atol=1e-15)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dsig = (rng.uniform(size=(6, 6)) > 0.6).astype(float)
            r = A.fuse_graphs(dsig, T.Tensor(rng.normal(size=(6, 6))),
                              T.Tensor(rng.normal()))
            assert np.abs(r.data.sum(axis=1) - 1.0).max() < 1e-6


class TestGiSa:
    def test_zero_value_weights_residual_only(self):
        rng = np.random.default_rng(6)
        m, d = 4, 2
        g = make_graphs(rng, m)
        h_me = T.Tensor(rng.normal(size=(m, d)))
        h_ne = T.Tensor(rng.normal(size=(m, d)))
        w = T.Tensor(rng.normal(size=(d, d)))
        zero_v = T.Tensor(np.zeros((d, d)))
        hat_me, _ = A.gi_sa(h_me, h_ne, g, w, w, zero_v, T.Tensor(1.0),
                            B=2, L=2, scale=math.sqrt(d))
        assert np.array_equal(hat_me.data, h_me.data)

    def test_zero_other_person(self):
        rng = np.random.default_rng(7)
        m, d = 4, 2
        g = make_graphs(rng, m)
        h_me = T.Tensor(rng.normal(size=(m, d)))
        w = T.Tensor(rng.normal(size=(d, d)))
        hat_me, _ = A.gi_sa(h_me, T.Tensor(np.zeros((m, d))), g, w, w, w,
                            T.Tensor(1.0), B=2, L=2, scale=math.sqrt(d))
        assert np.array_equal(hat_me.data, h_me.data)

    def test_saturated_softmax_identity_mixing(self):
        # R forced to the identity by a huge alpha on a diagonal semantic graph
        m, d = 2, 1
        dsig = np.zeros((m, m))
        g = InteractionGraphs(dsig, dsig.copy(), dsig, dsig.copy(), k=1)
        h_me = T.Tensor([[1.0], [2.0]])
        h_ne = T.Tensor([[10.0], [-20.0]])
        one = T.Tensor([[1.0]])
        hat_me, _ = A.gi_sa(h_me, h_ne, g, one, one, one, T.Tensor(4000.0),
                            B=1, L=2, scale=1.0)
        # with W=1 and d=1: logits rows are distinct enough that softmax
        # saturates; verify against explicit computation
        logits = A.sdig(h_me, h_ne, one, one, B=1, L=2, scale=1.0).data
        r = np.zeros((m, m))
        r[np.arange(m), logits.argmax(axis=1)] = 1.0
        want = r @ h_ne.data + h_me.data
        assert np.allclose(hat_me.data, want, atol=1e-12)


class TestGiMsa:
    def test_single_head_identity_projection_equals_gi_sa(self):
        rng = np.random.default_rng(8)
        m, d = 4, 3
        g = make_graphs(rng, m)
        p = make_params(rng, h=1, d=d, requires_grad=False)
        p.wm = T.Tensor(np.eye(d))
        p.wn = T.Tensor(np.eye(d))
        h_me = T.Tensor(rng.normal(size=(m, d)))
        h_ne = T.Tensor(rng.normal(size=(m, d)))
        out_m, out_n = A.gi_msa(h_me, h_ne, g, p, B=2, L=2)
        want_m, want_n = A.gi_sa(h_me, h_ne, g, p.wq[0], p.wk[0], p.wv[0],
                                 p.alpha[0], B=2, L=2, scale=math.sqrt(d))
        assert np.allclose(out_m.data, want_m.data, atol=1e-12)
        assert np.allclose(out_n.data, want_n.data, atol=1e-12)

    def test_output_shapes_across_head_splits(self):
        rng = np.random.default_rng(9)
        m, dim = 6, 12
        g = make_graphs(rng, m)
        for h in (1, 2, 3, 4, 6):
            p = make_params(rng, h=h, d=dim // h, requires_grad=False)
            out_m, out_n = A.gi_msa(T.Tensor(rng.normal(size=(m, dim))),
                                    T.Tensor(rng.normal(size=(m, dim))),
                                    g, p, B=3, L=2)
            assert out_m.shape == (m, dim) and out_n.shape == (m, dim)

    def test_two_heads_match_manual_chunking(self):
        rng = np.random.default_rng(10)
        m, dim, h = 4, 6, 2
        d = dim // h
        g = make_graphs(rng, m)
        p = make_params(rng, h=h, d=d, requires_grad=False)
        x_m = rng.normal(size=(m, dim))
        x_n = rng.normal(size=(m, dim))
        out_m, _ = A.gi_msa(T.Tensor(x_m), T.Tensor(x_n), g, p, B=2, L=2)
        chunks = []
        for i in range(h):
            cm = T.Tensor(x_m[:, i * d:(i + 1) * d])
            cn = T.Tensor(x_n[:, i * d:(i + 1) * d])
            hat, _ = A.gi_sa(cm, cn, g, p.wq[i], p.wk[i], p.wv[i], p.alpha[i],
                             B=2, L=2, scale=math.sqrt(d))
            chunks.append(hat.data)
        want = np.concatenate(chunks, axis=1) @ p.wm.data
        assert np.allclose(out_m.data, want, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        rng = np.random.default_rng(11)
        g = make_graphs(rng, 4)
        p = make_params(rng, h=2, d=2, requires_grad=False)
        with pytest.raises(Exception):
            A.gi_msa(T.Tensor(np.zeros((4, 5))), T.Tensor(np.zeros((4, 5))),
                     g, p, B=2, L=2)

    def test_bad_mode(self):
        rng = np.random.default_rng(12)
        g = make_graphs(rng, 4)
        p = make_params(rng, h=2, d=2, requires_grad=False)
        with pytest.raises(ConfigError):
            A.gi_msa(T.Tensor(np.zeros((4, 4))), T.Tensor(np.zeros((4, 4))),
                     g, p, B=2, L=2, mode="bogus")


class TestSharedDirectionWeights:
    def test_wq_gradient_flows_from_both_directions(self):
        rng = np.random.default_rng(13)
        m, d = 4, 2
        g = make_graphs(rng, m)
        p = make_params(rng, h=1, d=d)
        h_me = T.Tensor(rng.normal(size=(m, d)))
        h_ne = T.Tensor(rng.normal(size=(m, d)))
        out_m, out_n = A.gi_msa(h_me, h_ne, g, p, B=2, L=2)
        out_m.sum().backward()
        g_from_m = p.wq[0].grad.copy()
        p.wq[0].grad = None
        out_m2, out_n2 = A.gi_msa(h_me, h_ne, g, p, B=2, L=2)
        out_n2.sum().backward()
        g_from_n = p.wq[0].grad
        assert np.abs(g_from_m).max() > 0 and np.abs(g_from_n).max() > 0
        assert not np.allclose(g_from_m, g_from_n)

    def test_alpha_gradient_nonzero(self):
        rng = np.random.default_rng(14)
        m, d = 6, 2
        g = make_graphs(rng, m, k=2)
        p = make_params(rng, h=1, d=d)
        h_me = T.Tensor(rng.normal(size=(m, d)))
        h_ne = T.Tensor(rng.normal(size=(m, d)))
        out_m, _ = A.gi_msa(h_me, h_ne, g, p, B=2, L=3)
        (out_m * T.Tensor(rng.normal(size=(m, d)))).sum().backward()
        assert abs(float(p.alpha[0].grad)) > 0


class TestSymmetryAndInvariance:
    def test_sdig_row_shift_invariance(self):
        # adding a constant to one row of the semantic logits leaves that
        # row of R, and hence the mixed output, unchanged
        rng = np.random.default_rng(16)
        m = 4
        dsig = np.zeros((m, m))
        s = rng.normal(size=(m, m))
        alpha = T.Tensor(1.0)
        r0 = A.fuse_graphs(dsig, T.Tensor(s), alpha).data
        shifted = s.copy()
        shifted[2] += 7.5
        r1 = A.fuse_graphs(dsig, T.Tensor(shifted), alpha).data
        assert np.allclose(r0[2], r1[2], atol=1e-12)
        assert np.allclose(r0, r1, atol=1e-12)


class TestModes:
    def setup(self, rng, mode):
        m, dim, h = 4, 4, 2
        g = make_graphs(rng, m, k=2)
        p = make_params(rng, h=h, d=dim // h)
        x_a = T.Tensor(rng.normal(size=(m, dim)))
        x_b = T.Tensor(rng.normal(size=(m, dim)))
        return A.gi_msa(x_a, x_b, g, p, B=2, L=2, mode=mode), (g, p, x_a, x_b)

    def test_sdig_only_ignores_dsig(self):
        rng = np.random.default_rng(17)
        m, dim, h = 4, 4, 2
        p = make_params(np.random.default_rng(18), h=h, d=dim // h, requires_grad=False)
        x_a = T.Tensor(rng.normal(size=(m, dim)))
        x_b = T.Tensor(rng.normal(size=(m, dim)))
        g1 = make_graphs(np.random.default_rng(19), m, k=1)
        g2 = make_graphs(np.random.default_rng(20), m, k=3)
        out1, _ = A.gi_msa(x_a, x_b, g1, p, B=2, L=2, mode="sdig_only")
        out2, _ = A.gi_msa(x_a, x_b, g2, p, B=2, L=2, mode="sdig_only")
        assert np.array_equal(out1.data, out2.data)

    def test_dsig_only_has_no_semantic_gradient(self):
        rng = np.random.default_rng(21)
        (out_m, _), (g, p, _, _) = self.setup(rng, "dsig_only")
        out_m.sum().backward()
        assert p.wq[0].grad is None
        assert p.alpha[0].grad is None
        assert p.wv[0].grad is not None

    def test_collect_exports_per_head_matrices(self):
        rng = np.random.default_rng(22)
        m, dim, h = 4, 4, 2
        g = make_graphs(rng, m, k=2)
        p = make_params(rng, h=h, d=dim // h, requires_grad=False)
        collect = {}
        A.gi_msa(T.Tensor(rng.normal(size=(m, dim))), T.Tensor(rng.normal(size=(m, dim))),
                 g, p, B=2, L=2, collect=collect)
        assert len(collect["sdig_ab"]) == h
        assert len(collect["r_ab"]) == h
        for r in collect["r_ab"]:
            assert np.abs(r.sum(axis=1) - 1.0).max() < 1e-6


def test_matrix_text_round_trip():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(5, 5))
    back = A.matrix_from_text(A.matrix_to_text(a))
    assert np.array_equal(back, a)
