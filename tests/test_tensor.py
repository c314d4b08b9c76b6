"""Tensor core: forward semantics against hand/loop oracles and backward
semantics on hand cases. The finite-difference check of every op's backward
is the `tensor.gradcheck.*` family of the verify battery."""

import math
from pathlib import Path

import numpy as np
import pytest

import igformer.tensor as T
from igformer import spm, training as tr
from igformer.config import load_config
from igformer.errors import ConfigError, NumericError, ShapeError, UsageError
from igformer.gradcheck import numeric_grad
from igformer.model import init_params
from igformer.skeleton import BodyPartMap, SkeletonSequence, builtin_part_map


def matmul_oracle(a, b):
    # Naive triple loop, the independent reference for T.matmul.
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(a))
        assert np.array_equal(out.data, a)

    def test_zero_annihilation(self):
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(np.zeros((2, 2))))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        assert np.abs(out.data - matmul_oracle(a, b)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = T.softmax_rows(T.Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        out = T.softmax_rows(T.Tensor([[1.0, 0.0]]))
        e = math.e
        assert np.allclose(out.data, [[e / (e + 1), 1 / (e + 1)]], atol=1e-15)

    def test_large_logits_stay_finite(self):
        out = T.softmax_rows(T.Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] > 0.999999

    def test_rows_sum_to_one_at_large_magnitude(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1e4, 1e4, size=(20, 7))
        out = T.softmax_rows(T.Tensor(x))
        assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-6
        assert (out.data >= 0).all()

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax_rows(T.Tensor([[np.nan, 0.0]]))


class TestLayerNorm:
    def test_zero_variance_collapses_to_beta(self):
        out = T.layer_norm(T.Tensor([[1.0, 1.0, 1.0]]), T.Tensor(np.ones(3)),
                           T.Tensor(np.zeros(3)), eps=1e-6)
        assert np.abs(out.data).max() < 1e-3  # 0 / sqrt(eps)

    def test_already_normalized(self):
        out = T.layer_norm(T.Tensor([[-1.0, 1.0]]), T.Tensor(np.ones(2)),
                           T.Tensor(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-9)

    def test_output_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=3.0, size=(1, 8))  # variance >> eps
        out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)),
                           eps=1e-6).data
        assert abs(out.mean()) < 1e-10
        assert abs(out.var() - 1.0) < 1e-6

    def test_eps_validation(self):
        with pytest.raises(ConfigError):
            T.layer_norm(T.Tensor([[1.0]]), T.Tensor([1.0]), T.Tensor([0.0]), eps=0.0)


def one_part_windows(coords, cfg):
    # the tokenizer's windows of a single part holding every joint
    part_map = BodyPartMap((("all", tuple(range(coords.shape[1]))),),
                           joint_count=coords.shape[1])
    return spm.patch_windows(SkeletonSequence(coords), part_map, cfg)


def resize(x, target):
    # the tokenizer's joint-axis resize of a T x J x C block
    return np.einsum("pj,tjc->tpc", spm.resize_weights(x.shape[1], target), x)


class TestConv2d:
    """The tokenizer's temporal patch projection (windows + `project_patches`)."""

    def test_single_valid_window(self):
        cfg = spm.SpmConfig(P=16, stride=1, padding=0, T=16)
        windows = one_part_windows(np.zeros((16, 16, 3)), cfg)
        out = T.project_patches(windows, T.Tensor(np.zeros((3, 16, 16, 3))),
                                T.Tensor(np.zeros(3)))
        assert out.data.shape == (1, 3)

    def test_hand_unrolled_window_sums(self):
        # all-ones 4-frame, 2-joint input, all-ones 1x2x2x3 kernel: three
        # windows of 2*2*3 ones each
        cfg = spm.SpmConfig(P=2, stride=1, padding=0, T=4)
        windows = one_part_windows(np.ones((4, 2, 3)), cfg)
        out = T.project_patches(windows, T.Tensor(np.ones((1, 2, 2, 3))), T.Tensor(np.zeros(1)))
        assert np.array_equal(out.data, np.array([[12.0], [12.0], [12.0]]))

    def test_too_short_input_rejected(self):
        with pytest.raises(ConfigError):
            spm.SpmConfig(P=8, stride=1, padding=0, T=2)

    def test_windows_must_fit_kernel(self):
        with pytest.raises(ShapeError):
            T.project_patches(np.zeros((1, 2, 4, 4, 3)), T.Tensor(np.zeros((2, 8, 8, 3))),
                              T.Tensor(np.zeros(2)))


class TestResize:
    def test_two_point_ramp(self):
        x = np.array([0.0, 1.0]).reshape(1, 2, 1)
        out = resize(x, 4)
        assert np.allclose(out[0, :, 0], [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)

    def test_midpoint_insertion(self):
        x = np.array([0.0, 1.0, 2.0]).reshape(1, 3, 1)
        out = resize(x, 5)
        assert np.allclose(out[0, :, 0], [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-15)

    def test_identity_when_sizes_match(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 3))
        assert np.array_equal(resize(x, 4), x)

    def test_single_joint_broadcasts(self):
        x = np.array([7.0]).reshape(1, 1, 1)
        assert np.array_equal(resize(x, 5)[0, :, 0], np.full(5, 7.0))

    def test_endpoints_exact(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 3))
        out = resize(x, 9)
        assert np.array_equal(out[:, 0], x[:, 0])
        assert np.array_equal(out[:, -1], x[:, -1])


class TestCrossEntropy:
    def test_uniform_two_way(self):
        loss = T.cross_entropy(T.Tensor([0.0, 0.0]), [0])
        assert abs(float(loss.data) - math.log(2.0)) < 1e-12

    def test_confident_correct(self):
        loss = T.cross_entropy(T.Tensor([100.0, 0.0, 0.0]), [0])
        assert float(loss.data) < 1e-12

    def test_batch_mean(self):
        logits = T.Tensor([[0.0, 0.0], [0.0, 0.0]])
        loss = T.cross_entropy(logits, [0, 1])
        assert abs(float(loss.data) - math.log(2.0)) < 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones(3))

    def test_softmax_row_sum_has_zero_gradient(self):
        x = T.Tensor([[0.3, -1.2, 0.8]], requires_grad=True)
        T.softmax_rows(x).sum().backward()
        assert np.abs(x.grad).max() < 1e-12

    def test_scalar_required(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            (x * 2.0).backward()

    def test_detached_graph_rejected(self):
        x = T.Tensor([1.0])
        with pytest.raises(UsageError):
            x.sum().backward()

    def test_gradient_accumulates_over_reuse(self):
        x = T.Tensor([2.0], requires_grad=True)
        (x * 3.0 + x * 5.0).sum().backward()
        assert np.allclose(x.grad, [8.0])

    def test_reverse_order_on_diamond(self):
        # y = x*x consumed twice; both consumers must run before x's producer
        x = T.Tensor([1.5], requires_grad=True)
        y = x * x
        z = (y * 2.0 + y * 3.0).sum()
        z.backward()
        assert np.allclose(x.grad, [2 * 1.5 * 5.0])


class TestSgdNesterov:
    def test_hand_applied_rule(self):
        w = np.array([1.0])
        v = np.zeros(1)
        T.sgd_nesterov_step([w], [np.array([1.0])], [v], lr=0.1, momentum=0.9)
        assert np.allclose(v, [1.0])
        assert np.allclose(w, [0.81])

    def test_zero_momentum_is_plain_sgd(self):
        w = np.array([1.0])
        T.sgd_nesterov_step([w], [np.array([1.0])], [np.zeros(1)], lr=0.1, momentum=0.0)
        assert np.allclose(w, [0.9])

    def test_fixed_point(self):
        w = np.array([1.0, -2.0])
        T.sgd_nesterov_step([w], [np.zeros(2)], [np.zeros(2)], lr=0.1, momentum=0.9)
        assert np.array_equal(w, [1.0, -2.0])

    def test_lr_validation(self):
        with pytest.raises(ConfigError):
            T.sgd_nesterov_step([np.array([1.0])], [np.zeros(1)], [np.zeros(1)], lr=0.0)


class TestDtypeConfig:
    def test_float32_available(self):
        T.set_default_dtype(np.float32)
        try:
            x = T.Tensor([1.0, 2.0])
            assert x.data.dtype == np.float32
        finally:
            T.set_default_dtype(np.float64)

    def test_float32_computes_in_float32(self):
        cfg = load_config(Path(__file__).parent.parent / "configs" / "synth-tiny.ini")
        part_map = builtin_part_map(15)
        T.set_default_dtype(np.float32)
        try:
            model = init_params(cfg.model, seed=0, part_map=part_map)
            data = tr.prepare_dataset(tr.make_synth_dataset(2, T=cfg.spm.T, seed=1), part_map,
                                      cfg.spm, cfg.dsig.k)
            sample, graphs = data[0].sample, data[0].graphs
            loss, logits = model.loss(sample, graphs)
            loss.backward()
            params = list(model.named_parameters().values())
            arrays = [model.tokenize(sample.person_a).tokens.data, logits.data, loss.data]
            assert {a.dtype for a in arrays + [p.grad for p in params]} == {np.dtype(np.float32)}
            # one SGD step (a one-batch epoch) keeps the parameters float32
            tr.train(model, data, tr.TrainConfig(epochs=1, batch_size=2, milestones=()))
            assert {p.data.dtype for p in params} == {np.dtype(np.float32)}
        finally:
            T.set_default_dtype(np.float64)

    def test_bad_dtype_rejected(self):
        with pytest.raises(ConfigError):
            T.set_default_dtype(np.int32)


def test_numeric_grad_oracle_on_quadratic():
    # sanity-check the checker itself against an analytic derivative
    x = np.array([1.0, -2.0, 0.5])
    g = numeric_grad(lambda: float((x ** 2).sum()), x)
    assert np.abs(g - 2 * x).max() < 1e-8
