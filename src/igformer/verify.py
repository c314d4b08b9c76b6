"""Self-check battery behind the `verify` command: finite-difference gradient
checks for every differentiable op and the end-to-end model, the brute-force
distance-graph oracle, and the library's structural invariants. Each check
carries a stable identifier so failures name what broke. This module is the
one implementation of each oracle and invariant; the test suite runs every
check as its own test, and the acceptance criteria call the same checks.

`corrupt_op` deliberately mis-scales one op's backward pass and runs only
that op's gradient check, which must then fail (negative control for the
harness).
"""

from __future__ import annotations

import io
import math
import zlib

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .attention import GiMsaParams, fuse_graphs, gi_msa, sdig
from .gradcheck import check_gradients
from .graphs import (DistanceGraphConfig, InteractionGraphs, build_interaction_graphs,
                     knn_threshold, pairwise_distance, read_sidecar, write_sidecar)
from .model import ModelConfig, expected_param_count, init_params, itb_forward
from .skeleton import (InteractionSample, SkeletonSequence, builtin_part_map,
                       read_canonical, write_canonical)
from .spm import SpmConfig, conv_steps, patch_windows, spm_forward
from .training import TrainConfig, lr_at, make_synth_dataset


def _rand(rng, *shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)


def _gradcheck_cases():
    """(identifier, case builder) for every differentiable primitive.

    Ops are looked up on the tensor module at call time so the corruption
    hook is visible to these checks.
    """
    def simple(op_name, *shapes, out_shape=None, extra=()):
        def case(rng):
            op = getattr(T, op_name)
            tensors = [_rand(rng, *s) for s in shapes]
            w = T.Tensor(rng.normal(size=out_shape or shapes[0]))
            return (lambda: (op(*tensors, *extra) * w).sum()), tensors
        return case

    cases = {
        "add": simple("add", (3, 4), (3, 4)),
        "add-broadcast": simple("add", (3, 4), (4,), out_shape=(3, 4)),
        "mul": simple("mul", (3, 4), (3, 4)),
        "scalar-mul": simple("mul", (3, 4), (), out_shape=(3, 4)),
        "matmul": simple("matmul", (3, 4), (4, 2), out_shape=(3, 2)),
        "transpose": simple("transpose", (3, 4), out_shape=(4, 3)),
        "softmax_rows": simple("softmax_rows", (4, 5)),
        "gelu": simple("gelu", (4, 4)),
        "layer_norm": simple("layer_norm", (3, 6), (6,), (6,), out_shape=(3, 6)),
        "reshape": simple("reshape", (2, 6), out_shape=(3, 4), extra=((3, 4),)),
        "broadcast_to": simple("broadcast_to", (1, 4), out_shape=(3, 4), extra=((3, 4),)),
        "mean_axis": simple("mean_axis", (4, 3, 2), out_shape=(4, 2), extra=(1,)),
        "slice_axis": simple("slice_axis", (4, 6), out_shape=(4, 3), extra=(1, 1, 4)),
        "sum_all": simple("sum_all", (3, 4), out_shape=()),
    }

    def concat_case(rng):
        a, b = _rand(rng, 3, 2), _rand(rng, 3, 3)
        w = T.Tensor(rng.normal(size=(3, 5)))
        return (lambda: (T.concat([a, b], axis=1) * w).sum()), [a, b]
    cases["concat"] = concat_case

    def projection_case(rng):
        # 2 parts x 4 steps of 3 x 3 x 2 windows onto D=2
        windows = rng.normal(size=(2, 4, 3, 3, 2))
        k, b = _rand(rng, 2, 3, 3, 2), _rand(rng, 2)
        w = T.Tensor(rng.normal(size=(8, 2)))
        return (lambda: (T.project_patches(windows, k, b) * w).sum()), [k, b]
    cases["project_patches"] = projection_case

    def ce_case(rng):
        x = _rand(rng, 3, 4)
        labels = rng.integers(0, 4, size=3)
        return (lambda: T.cross_entropy(x, labels)), [x]
    cases["cross_entropy"] = ce_case
    return cases


def _tiny_cfg(**kw):
    defaults = dict(num_classes=3, D=8, h=2, N=1,
                    spm=SpmConfig(P=4, stride=4, padding=0, T=8),
                    dsig=DistanceGraphConfig(k=3))
    defaults.update(kw)
    return ModelConfig(**defaults)


def _random_sample(rng, t, label=0):
    return InteractionSample(SkeletonSequence(rng.normal(size=(t, 15, 3))),
                             SkeletonSequence(rng.normal(size=(t, 15, 3))), label=label)


def _tiny_sample(rng, cfg, label=0):
    sample = _random_sample(rng, cfg.spm.T, label)
    return sample, build_interaction_graphs(sample, builtin_part_map(15), cfg.spm, cfg.dsig.k)


def end_to_end_gradcheck(cfg, model_seed, sample_seed, tol=1e-4):
    """Finite-difference check of the loss gradient of every parameter of a
    freshly initialized model on one random 15-joint sample with label 1.
    Returns (worst relative error, number of parameter tensors); raises
    AssertionError above `tol`."""
    model = init_params(cfg, seed=model_seed)
    sample, graphs = _tiny_sample(np.random.default_rng(sample_seed), cfg, label=1)

    def build():
        model.zero_grads()
        loss, _ = model.loss(sample, graphs)
        return loss

    params = [model.named_parameters()[n] for n in sorted(model.named_parameters())]
    return check_gradients(build, params, tol=tol), len(params)


def _brute_force_dsig(coords_a, coords_b, part_map, cfg, k):
    # independent scalar-loop pipeline (centroids, clipped window means,
    # distances, per-row sort with <=-tie inclusion)
    def tokens(coords):
        t = coords.shape[0]
        per_part = []
        for _, idx in part_map.parts:
            cent = np.zeros((t, 3))
            for f in range(t):
                for axis in range(3):
                    s = 0.0
                    for j in idx:
                        s += coords[f, j, axis]
                    cent[f, axis] = s / len(idx)
            steps = np.zeros((cfg.L, 3))
            for w in range(cfg.L):
                lo = max(0, w * cfg.stride - cfg.padding)
                hi = min(t, w * cfg.stride - cfg.padding + cfg.P)
                for axis in range(3):
                    s = 0.0
                    for f in range(lo, hi):
                        s += cent[f, axis]
                    steps[w, axis] = s / (hi - lo)
            per_part.append(steps)
        return np.array([per_part[p][step] for step in range(cfg.L)
                         for p in range(part_map.B)])

    ta, tb = tokens(coords_a), tokens(coords_b)
    m = ta.shape[0]
    dist = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            s = 0.0
            for axis in range(3):
                d = ta[a, axis] - tb[b, axis]
                s += d * d
            dist[a, b] = math.sqrt(s)
    dsig = np.zeros((m, m))
    for a in range(m):
        thresh = sorted(dist[a])[k - 1]
        for b in range(m):
            dsig[a, b] = 1.0 if dist[a, b] <= thresh else 0.0
    return dist, dsig


def window_oracle(block, cfg, step, kernel, bias):
    """Token of one (T, J, 3) part block at one step, in plain numpy: each
    frame's joints resampled to P points by np.interp, then the zero-padded
    window [step*stride - padding, +P) weighted by the kernel."""
    t, j, _ = block.shape
    grid = np.linspace(0.0, j - 1.0, cfg.P)
    window = np.zeros((cfg.P, cfg.P, 3))
    for i in range(cfg.P):
        f = step * cfg.stride - cfg.padding + i
        if 0 <= f < t:
            for c in range(3):
                window[i, :, c] = np.interp(grid, np.arange(j), block[f, :, c])
    return (window[None] * kernel).sum(axis=(1, 2, 3)) + bias


def _gimsa_params(rng, h, d, tied=False, requires_grad=False):
    def mat(*shape):
        return T.Tensor(rng.normal(scale=0.3, size=shape), requires_grad=requires_grad)
    wm = mat(h * d, h * d)
    return GiMsaParams(wq=[mat(d, d) for _ in range(h)], wk=[mat(d, d) for _ in range(h)],
                       wv=[mat(d, d) for _ in range(h)],
                       alpha=[T.Tensor(1.0, requires_grad=requires_grad) for _ in range(h)],
                       wm=wm, wn=wm if tied else mat(h * d, h * d))


def _random_graphs(rng, m, k):
    dist = pairwise_distance(rng.normal(size=(m, 3)), rng.normal(size=(m, 3)))
    return InteractionGraphs(dist, dist.T.copy(), knn_threshold(dist, k),
                             knn_threshold(dist.T.copy(), k), k)


# window geometry of the graph checks (T=40 -> L=10, M=50) and of the
# D=8 models of the symmetry and determinism checks (T=16 -> M=20)
_GRAPH_SPM = SpmConfig(P=8, stride=4, padding=2, T=40)
_SWAP_SPM = SpmConfig(P=4, stride=4, padding=0, T=16)


def _gradchecks():
    entries = []
    for name, case in _gradcheck_cases().items():
        def run(case=case, seed=zlib.crc32(name.encode())):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                build, params = case(rng)
                check_gradients(build, params, tol=1e-4)
        entries.append((f"tensor.gradcheck.{name}", run))
    return entries


def _structural_checks():
    entries = []

    def check(name):
        def deco(fn):
            entries.append((name, fn))
            return fn
        return deco

    @check("tensor.matmul.identity-and-zero")
    def _():
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        assert np.array_equal(T.matmul(T.Tensor(np.eye(4)), T.Tensor(a)).data, a)
        assert np.array_equal(T.matmul(T.Tensor(a), T.Tensor(np.zeros((4, 4)))).data,
                              np.zeros((4, 4)))

    @check("tensor.softmax.row-sums")
    def _():
        rng = np.random.default_rng(1)
        x = rng.uniform(-1e4, 1e4, size=(30, 9))
        y = T.softmax_rows(T.Tensor(x)).data
        assert np.abs(y.sum(axis=1) - 1.0).max() < 1e-6
        assert (y >= 0).all()

    @check("tensor.resize.identity-when-sizes-match")
    def _():
        # with P equal to a part's joint count, the part's windows (here
        # back to back) are its raw frames
        rng = np.random.default_rng(2)
        seq = SkeletonSequence(rng.normal(size=(6, 15, 3)))
        part_map = builtin_part_map(15)
        windows = patch_windows(seq, part_map, SpmConfig(P=3, stride=3, padding=0, T=6))
        for p, (_, idx) in enumerate(part_map.parts):
            assert np.array_equal(windows[p].reshape(6, 3, 3), seq.coords[:, list(idx)])

    @check("spm.step-count-formula")
    def _():
        # conv_steps, SpmConfig.L, the number of patch windows, a direct
        # count of the windows on the zero-padded sequence and the B*L
        # tokens of spm_forward agree over a random sweep
        rng = np.random.default_rng(3)
        part_map = builtin_part_map(15)
        for _ in range(40):
            t = int(rng.integers(4, 64))
            p = int(rng.integers(1, min(t, 9) + 1))
            stride = int(rng.integers(1, 7))
            padding = int(rng.integers(0, 4))
            want = conv_steps(t, p, stride, padding)
            if want < 1:
                continue
            cfg = SpmConfig(P=p, stride=stride, padding=padding, T=t)
            seq = SkeletonSequence(rng.normal(size=(t, 15, 3)))
            windows = patch_windows(seq, part_map, cfg)
            padded = t + 2 * padding
            count = sum(1 for j in range(0, padded, stride) if j + p <= padded)
            assert windows.shape[1] == cfg.L == want == count
            bpt = spm_forward(seq, part_map, cfg, np.zeros((2, p, p, 3)), np.zeros(2))
            assert bpt.tokens.shape == (part_map.B * cfg.L, 2)
        # at the default geometry each part has 25 windows, projected to 25 tokens
        windows = patch_windows(SkeletonSequence(np.zeros((256, 15, 3))), part_map, SpmConfig())
        one_part = T.project_patches(windows[:1], np.zeros((4, 16, 16, 3)), np.zeros(4))
        assert windows.shape == (5, 25, 16, 16, 3) and SpmConfig().L == 25
        assert one_part.shape == (25, 4)

    @check("spm.layout.time-major-roundtrip")
    def _():
        # tokens t*B..t*B+B-1 are the B per-part embeddings of step t
        rng = np.random.default_rng(4)
        cfg = SpmConfig(P=4, stride=2, padding=1, T=12)
        part_map = builtin_part_map(15)
        kernel = T.Tensor(rng.normal(scale=0.1, size=(3, 4, 4, 3)))
        bias = T.Tensor(rng.normal(size=3))
        seq = SkeletonSequence(rng.normal(size=(12, 15, 3)))
        bpt = spm_forward(seq, part_map, cfg, kernel, bias)
        for p, (_, idx) in enumerate(part_map.parts):
            for step in range(cfg.L):
                want = window_oracle(seq.coords[:, list(idx)], cfg, step, kernel.data, bias.data)
                assert np.allclose(bpt.tokens.data[step * part_map.B + p], want, atol=1e-12)

    @check("spm.shared-projection.parameter-count")
    def _():
        model = init_params(_tiny_cfg())
        total = sum(p.data.size for p in model.named_parameters().values())
        assert total == expected_param_count(model.cfg)

    @check("dsig.brute-force-oracle")
    def _():
        # 100 random samples, both directions, bit-identical to the loop oracle
        rng = np.random.default_rng(5)
        part_map = builtin_part_map(15)
        for _ in range(100):
            sample = _random_sample(rng, _GRAPH_SPM.T)
            a, b = sample.person_a.coords, sample.person_b.coords
            g = build_interaction_graphs(sample, part_map, _GRAPH_SPM, k=6)
            dist_ab, dsig_ab = _brute_force_dsig(a, b, part_map, _GRAPH_SPM, 6)
            dist_ba, dsig_ba = _brute_force_dsig(b, a, part_map, _GRAPH_SPM, 6)
            assert np.array_equal(g.A_ab, dist_ab) and np.array_equal(g.A_ba, dist_ba)
            assert np.array_equal(g.dsig_ab, dsig_ab) and np.array_equal(g.dsig_ba, dsig_ba)

    @check("dsig.translation-invariance")
    def _():
        rng = np.random.default_rng(6)
        part_map = builtin_part_map(15)
        sample = _random_sample(rng, _GRAPH_SPM.T)
        v = np.array([3.0, -1.5, 0.25])
        moved = InteractionSample(SkeletonSequence(sample.person_a.coords + v),
                                  SkeletonSequence(sample.person_b.coords + v), label=0)
        g0 = build_interaction_graphs(sample, part_map, _GRAPH_SPM, k=6)
        g1 = build_interaction_graphs(moved, part_map, _GRAPH_SPM, k=6)
        assert np.array_equal(g0.dsig_ab, g1.dsig_ab)
        assert np.array_equal(g0.dsig_ba, g1.dsig_ba)

    @check("dsig.row-sums-and-tie-inclusion")
    def _():
        # exactly k per row under distinct distances; every tie at the k-th kept
        rng = np.random.default_rng(7)
        for _ in range(20):
            dsig = knn_threshold(rng.uniform(size=(12, 12)), 4)
            assert (dsig.sum(axis=1) == 4).all()
        tied = np.array([[0.1, 0.3, 0.3, 0.9]])
        assert np.array_equal(knn_threshold(tied, 2), [[1.0, 1.0, 1.0, 0.0]])

    @check("dsig.direction-asymmetry")
    def _():
        # crafted so row-wise and column-wise nearest neighbors differ
        A = np.array([[0.1, 0.2, 5.0], [4.0, 0.3, 0.4], [0.15, 6.0, 0.5]])
        assert not np.array_equal(knn_threshold(A, 1), knn_threshold(A.T, 1).T)

    @check("gimsa.sdig.elementwise-oracle")
    def _():
        rng = np.random.default_rng(8)
        B, L, d = 2, 4, 3
        m = B * L
        h_me, h_ne = rng.normal(size=(m, d)), rng.normal(size=(m, d))
        wq, wk = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        out = sdig(T.Tensor(h_me), T.Tensor(h_ne), T.Tensor(wq), T.Tensor(wk),
                   B=B, L=L, scale=math.sqrt(d))
        for a in range(m):
            for b in range(m):
                tb, pb = divmod(b, B)
                tc = sum(h_ne[t * B + pb] for t in range(L)) / L
                sc = sum(h_ne[tb * B + p] for p in range(B)) / B
                want = float((h_me[a] @ wq) @ ((h_ne[b] + tc + sc) @ wk)) / math.sqrt(d)
                assert abs(out.data[a, b] - want) < 1e-12

    @check("gimsa.fused-rows-stochastic")
    def _():
        rng = np.random.default_rng(9)
        for _ in range(20):
            dsig = (rng.uniform(size=(10, 10)) > 0.5).astype(float)
            r = fuse_graphs(dsig, T.Tensor(rng.normal(size=(10, 10))), T.Tensor(rng.normal()))
            assert np.abs(r.data.sum(axis=1) - 1.0).max() < 1e-6

    @check("gimsa.sdig.row-shift-invariance")
    def _():
        # a constant added to one row of the semantic logits leaves R unchanged
        rng = np.random.default_rng(10)
        s = rng.normal(size=(4, 4))
        shifted = s.copy()
        shifted[1] += 3.0
        r0 = fuse_graphs(np.zeros((4, 4)), T.Tensor(s), T.Tensor(1.0)).data
        r1 = fuse_graphs(np.zeros((4, 4)), T.Tensor(shifted), T.Tensor(1.0)).data
        assert np.allclose(r0, r1, atol=1e-12)

    @check("gimsa.direction-shared-weights")
    def _():
        rng = np.random.default_rng(11)
        m, d = 4, 2
        params = _gimsa_params(rng, h=1, d=d, tied=True, requires_grad=True)
        h_me, h_ne = _rand(rng, m, d), _rand(rng, m, d)
        out_m, out_n = gi_msa(h_me, h_ne, _random_graphs(rng, m, 2), params, B=2, L=2)
        (out_m.sum() + out_n.sum()).backward()
        assert params.wq[0].grad is not None and np.abs(params.wq[0].grad).max() > 0
        assert abs(float(params.alpha[0].grad)) > 0

    @check("gimsa.person-swap-equivariance")
    def _():
        rng = np.random.default_rng(12)
        m, h, d = 6, 2, 4
        g = _random_graphs(rng, m, 2)
        params = _gimsa_params(rng, h=h, d=d, tied=True)
        x_a = T.Tensor(rng.normal(size=(m, h * d)))
        x_b = T.Tensor(rng.normal(size=(m, h * d)))
        out_a, out_b = gi_msa(x_a, x_b, g, params, B=2, L=3)
        sw_b, sw_a = gi_msa(x_b, x_a, g.swapped(), params, B=2, L=3)
        assert np.array_equal(out_a.data, sw_a.data)
        assert np.array_equal(out_b.data, sw_b.data)

    @check("model.end-to-end-gradcheck")
    def _():
        end_to_end_gradcheck(_tiny_cfg(), model_seed=1, sample_seed=13)

    @check("model.person-swap-logits")
    def _():
        # tied person branches: swapping the persons (and the graphs' directions)
        # leaves the logits bit-identical
        rng = np.random.default_rng(10)
        model = init_params(_tiny_cfg(N=2, tie_person_branches=True, spm=_SWAP_SPM,
                                      dsig=DistanceGraphConfig(k=5)), seed=5)
        sample, graphs = _tiny_sample(rng, model.cfg)
        swapped = InteractionSample(sample.person_b, sample.person_a, label=0)
        assert np.array_equal(model.forward(sample, graphs).data,
                              model.forward(swapped, graphs.swapped()).data)

    @check("model.cross-person-gradient")
    def _():
        # exactly zero without the interaction module, nonzero with it
        rng = np.random.default_rng(15)
        for mode, expect in (("no_gimsa", False), ("full", True)):
            model = init_params(_tiny_cfg(mode=mode, spm=_SWAP_SPM,
                                          dsig=DistanceGraphConfig(k=5)), seed=6)
            sample, graphs = _tiny_sample(rng, model.cfg)
            h_m = model.tokenize(sample.person_a).tokens
            h_n = T.Tensor(model.tokenize(sample.person_b).tokens.data, requires_grad=True)
            out_m, _ = itb_forward(h_m, h_n, graphs, model.itbs[0], model.cfg,
                                   5, model.cfg.spm.L)
            out_m.sum().backward()
            got = h_n.grad is not None and np.abs(h_n.grad).max() > 0
            assert got == expect, f"mode={mode}"

    @check("model.forward-determinism")
    def _():
        rng = np.random.default_rng(16)
        model = init_params(_tiny_cfg(N=2, spm=_SWAP_SPM), seed=4)
        sample, graphs = _tiny_sample(rng, model.cfg)
        assert np.array_equal(model.forward(sample, graphs).data,
                              model.forward(sample, graphs).data)

    @check("trainer.nesterov-closed-form")
    def _():
        w_ref, v_ref = 1.0, 0.0
        w, v = np.array([1.0]), np.zeros(1)
        for _ in range(5):
            g = w_ref
            v_ref = 0.9 * v_ref + g
            w_ref = w_ref - 0.1 * (g + 0.9 * v_ref)
            T.sgd_nesterov_step([w], [w.copy()], [v], lr=0.1, momentum=0.9)
            assert w[0] == w_ref

    @check("trainer.lr-schedule")
    def _():
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 0.01
        assert lr_at(29, cfg) == 0.01
        assert abs(lr_at(30, cfg) - 0.001) < 1e-15
        assert abs(lr_at(40, cfg) - 0.0001) < 1e-16

    @check("skeleton.partition-maps")
    def _():
        for j in (15, 25):
            m = builtin_part_map(j)
            union = sorted(i for _, idx in m.parts for i in idx)
            assert union == list(range(j)) and m.B == 5

    @check("skeleton.canonical-roundtrip")
    def _():
        rng = np.random.default_rng(17)
        sample = InteractionSample(SkeletonSequence(rng.normal(size=(5, 15, 3))),
                                   SkeletonSequence(rng.normal(size=(5, 15, 3))),
                                   label=3, source_id="verify")
        blob = write_canonical(sample)
        back = read_canonical(io.BytesIO(blob))
        assert np.array_equal(back.person_a.coords, sample.person_a.coords)
        assert np.array_equal(back.person_b.coords, sample.person_b.coords)
        assert (back.label, back.source_id) == (3, "verify")
        assert write_canonical(back) == blob

    @check("graphs.sidecar-roundtrip")
    def _():
        rng = np.random.default_rng(18)
        g = build_interaction_graphs(_random_sample(rng, _GRAPH_SPM.T), builtin_part_map(15),
                                     _GRAPH_SPM, k=5)
        m, k, ab, ba = read_sidecar(io.BytesIO(write_sidecar(g)))
        assert (m, k) == (g.M, 5)
        assert np.array_equal(ab, g.dsig_ab) and np.array_equal(ba, g.dsig_ba)

    @check("trainer.synthetic-generator")
    def _():
        data = make_synth_dataset(8, classes=4, T=16, seed=0)
        labels = [s.label for s in data]
        assert all(labels.count(c) == 2 for c in range(4))
        d0 = data[0]
        start = np.linalg.norm(d0.person_a.coords[0].mean(0) - d0.person_b.coords[0].mean(0))
        end = np.linalg.norm(d0.person_a.coords[-1].mean(0) - d0.person_b.coords[-1].mean(0))
        assert end < start  # class 0 approaches

    return entries


def checks():
    """The battery as [(id, fn)], in report order; `fn()` raises on failure."""
    return _gradchecks() + _structural_checks()


def _corrupting(op_name):
    """Wrap igformer.tensor.<op_name> so its backward is scaled wrongly."""
    original = getattr(T, op_name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        if getattr(out, "_backward_fn", None) is not None:
            inner = out._backward_fn
            out._backward_fn = lambda g: inner(g * 1.001)
        return out

    return original, wrapper


def run_checks(corrupt_op=None, log_fn=None):
    """Run the whole battery, or with `corrupt_op` only that op's gradient
    check; returns (all_passed, [(id, passed, detail)])."""
    entries = checks()
    if corrupt_op is not None:
        entries = [(name, fn) for name, fn in entries
                   if name == f"tensor.gradcheck.{corrupt_op}"]
        if not entries:
            raise ConfigError(f"no gradient check named {corrupt_op!r}")
    original = None
    if corrupt_op is not None:
        original, wrapper = _corrupting(corrupt_op)
        setattr(T, corrupt_op, wrapper)
    results = []
    try:
        for name, fn in entries:
            try:
                fn()
                results.append((name, True, ""))
            except Exception as exc:
                results.append((name, False, f"{type(exc).__name__}: {exc}"))
            if log_fn is not None:
                ok, detail = results[-1][1], results[-1][2]
                log_fn(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else ""))
    finally:
        if original is not None:
            setattr(T, corrupt_op, original)
    return all(ok for _, ok, _ in results), results
