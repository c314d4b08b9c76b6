"""Span tracing from outside the program, and isolated backward replays.

`Tracer.install` wraps public functions of the package; each call made
while tracing is enabled records a span (name, start, end, parent) in
memory. A span's self time is its duration minus that of its child spans.
Backward closures run inside `Tensor.backward`, where an outside wrapper
cannot tell layers apart, so each layer's backward time comes from a replay
at the workload's shapes: leaf inputs, the layer's forward, then `backward`
of a fixed random projection of its output.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from igformer import attention, graphs, model, skeleton, tensor, training

# span name -> the (owner, attribute) bindings callers look the function up by
TARGETS = {
    "skeleton.parse_ntu": [(skeleton, "parse_ntu")],
    "skeleton.pad_sample": [(skeleton, "pad_sample"), (training, "pad_sample")],
    "skeleton.write_canonical": [(skeleton, "write_canonical")],
    "skeleton.read_canonical": [(skeleton, "read_canonical")],
    "graphs.build": [(graphs, "build_interaction_graphs"),
                     (training, "build_interaction_graphs")],
    "graphs.write_sidecar": [(graphs, "write_sidecar")],
    "graphs.read_sidecar": [(graphs, "read_sidecar")],
    "spm.forward": [(model.IGFormer, "tokenize")],
    "model.se_layer": [(model, "se_layer")],
    "attention.gi_msa": [(model, "gi_msa")],
    "model.itb": [(model, "itb_forward")],
    "model.forward": [(model.IGFormer, "forward")],
    "model.loss": [(model.IGFormer, "loss")],
    "tensor.backward": [(tensor.Tensor, "backward")],
    "tensor.sgd_step": [(tensor, "sgd_nesterov_step")],
    "model.checkpoint_save": [(model, "save_checkpoint")],
    "model.checkpoint_load": [(model, "load_checkpoint")],
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self._stack = []
        self._saved = []
        self.enabled = False

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
        return traced

    def install(self):
        for name, bindings in TARGETS.items():
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def count(self, name, start=0, stop=None):
        return sum(1 for s in self.spans[start:stop] if s[0] == name)

    def summary(self):
        """Median ms per call of each layer, from spans and self times."""
        total = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += total[i]
        own = [t - c for t, c in zip(total, child)]

        def median_ms(values):
            if not values:
                raise RuntimeError("a traced layer recorded no calls")
            return 1e3 * statistics.median(values)

        def of(name, values):
            return [v for s, v in zip(self.spans, values) if s[0] == name]

        # head: pooling and linear (self time of forward) plus the cross
        # entropy (self time of the enclosing loss, when there is one)
        head = [own[i] + (own[s[3]] if s[3] >= 0 and self.spans[s[3]][0] == "model.loss" else 0.0)
                for i, s in enumerate(self.spans) if s[0] == "model.forward"]
        out = {f"{name}_ms": median_ms(of(name, total)) for name in (
            "skeleton.parse_ntu", "skeleton.pad_sample", "skeleton.write_canonical",
            "skeleton.read_canonical", "graphs.build", "graphs.write_sidecar",
            "graphs.read_sidecar", "model.checkpoint_save", "model.checkpoint_load",
            "tensor.backward", "tensor.sgd_step", "model.forward")}
        out["spm.forward_ms"] = median_ms(of("spm.forward", total))
        out["model.se_layer.forward_ms"] = median_ms(of("model.se_layer", total))
        out["attention.gi_msa.forward_ms"] = median_ms(of("attention.gi_msa", total))
        # the per-person LayerNorm + FFN branch is what a block does besides
        # its SE layers and its graph attention
        out["model.out_ffn.forward_ms"] = median_ms(of("model.itb", own))
        out["model.head.forward_ms"] = median_ms(head)
        return out


def tape_nodes(loss):
    """Tensors reachable from `loss` through the recorded parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def replay_backward_ms(net, prepared, reps):
    """Median ms of `backward` through each layer alone, at the net's shapes."""
    cfg = net.cfg
    rng = np.random.default_rng(0xB4C)
    sample, graph = prepared.sample, prepared.graphs
    m, d = cfg.spm.M(net.part_map.B), cfg.D
    block = net.itbs[0]

    def leaf():
        return tensor.Tensor(rng.normal(size=(m, d)), requires_grad=True)

    def projected(*outs):
        loss = None
        for out in outs:
            term = tensor.sum_all(tensor.mul(out, tensor.Tensor(rng.normal(size=out.shape))))
            loss = term if loss is None else loss + term
        return loss

    def branch(hat, p):
        return model.ffn_forward(tensor.layer_norm(hat, p.ln.gamma, p.ln.beta), p.ffn) + hat

    layers = {
        "spm.backward_ms": lambda: projected(net.tokenize(sample.person_a).tokens),
        "model.se_layer.backward_ms": lambda: projected(model.se_layer(leaf(), block.se, cfg.h)),
        "attention.gi_msa.backward_ms": lambda: projected(*attention.gi_msa(
            leaf(), leaf(), graph, block.gi, net.part_map.B, cfg.spm.L,
            mode=cfg.mode, scale_mode=cfg.scale_mode)),
        "model.out_ffn.backward_ms": lambda: projected(branch(leaf(), block.out_m),
                                                       branch(leaf(), block.out_n)),
    }
    out = {}
    for name, forward in layers.items():
        times = []
        for _ in range(reps):
            loss = forward()
            start = time.perf_counter()
            loss.backward()
            times.append(time.perf_counter() - start)
            net.zero_grads()
        out[name] = 1e3 * statistics.median(times)
    return out
