"""End-to-end model: tokenizer, self-encoding layers, interaction blocks,
and the classifier head.

One interaction block runs a weight-shared pre-norm transformer layer over
each person, mixes the two token streams through graph-interaction
attention, and finishes each person with its own LayerNorm + feed-forward
residual. Blocks stack N deep; the classifier mean-pools the union of both
persons' tokens.

Checkpoint file layout (little-endian):
    magic b"IGFC" | uint32 digest_len | digest utf-8 | uint32 n_params |
    per parameter: uint32 name_len | name utf-8 | uint32 rank |
                   uint32 extents... | float64 data
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import MODES, SCALE_MODES, GiMsaParams, gi_msa
from .errors import ConfigError, ParseError, Reader, ShapeError
from .graphs import DistanceGraphConfig
from .skeleton import builtin_part_map
from .spm import SpmConfig, add_positional, spm_forward

TRUNC_STD = 0.02
FFN_MULT = 4  # the feed-forward layers are 4D wide


@dataclass
class ModelConfig:
    num_classes: int = 4
    D: int = 768
    h: int = 12
    N: int = 3
    mode: str = "full"
    scale_mode: str = "per_head"   # one of attention.SCALE_MODES
    dropout: float = 0.0
    tie_person_branches: bool = False
    spm: SpmConfig = None
    dsig: DistanceGraphConfig = field(default_factory=DistanceGraphConfig)

    def __post_init__(self):
        if self.spm is None:
            self.spm = SpmConfig()
        if self.N < 1:
            raise ConfigError("need at least one interaction block")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.D < 1 or self.h < 1 or self.D % self.h:
            raise ConfigError(f"hidden size {self.D} does not split into {self.h} heads")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.scale_mode not in SCALE_MODES:
            raise ConfigError(f"scale_mode must be one of {SCALE_MODES}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")

    @property
    def ffn_width(self):
        return FFN_MULT * self.D


@dataclass
class LayerNormParams:
    gamma: T.Tensor
    beta: T.Tensor


@dataclass
class FfnParams:
    w1: T.Tensor
    b1: T.Tensor
    w2: T.Tensor
    b2: T.Tensor


@dataclass
class SeParams:
    """One pre-norm transformer layer, shared by both persons within a block."""
    ln1: LayerNormParams
    wq: T.Tensor
    bq: T.Tensor
    wk: T.Tensor
    bk: T.Tensor
    wv: T.Tensor
    bv: T.Tensor
    wo: T.Tensor
    bo: T.Tensor
    ln2: LayerNormParams
    ffn: FfnParams


@dataclass
class BranchParams:
    ln: LayerNormParams
    ffn: FfnParams


@dataclass
class ItbParams:
    se: SeParams
    gi: GiMsaParams
    out_m: BranchParams
    out_n: BranchParams  # same object as out_m when person branches are tied


def ffn_forward(x, p, drop=None):
    hidden = T.gelu(T.linear(x, p.w1, p.b1))
    if drop is not None:
        hidden = drop(hidden)
    return T.linear(hidden, p.w2, p.b2)


def se_layer(H, p, h, drop=None):
    """Pre-norm transformer layer: H + MSA(LN(H)), then + FFN(LN(.))."""
    m, dim = H.shape
    if dim % h:
        raise ShapeError(f"hidden size {dim} not divisible by {h} heads")
    d = dim // h
    normed = T.layer_norm(H, p.ln1.gamma, p.ln1.beta)
    q = T.linear(normed, p.wq, p.bq)
    k = T.linear(normed, p.wk, p.bk)
    v = T.linear(normed, p.wv, p.bv)
    heads = []
    scale = 1.0 / math.sqrt(d)
    for i in range(h):
        qi = T.slice_axis(q, 1, i * d, (i + 1) * d)
        ki = T.slice_axis(k, 1, i * d, (i + 1) * d)
        vi = T.slice_axis(v, 1, i * d, (i + 1) * d)
        attn = T.softmax_rows(T.matmul(qi, T.transpose(ki)) * scale)
        heads.append(T.matmul(attn, vi))
    mixed = T.linear(T.concat(heads, axis=1), p.wo, p.bo)
    if drop is not None:
        mixed = drop(mixed)
    x = H + mixed
    return x + ffn_forward(T.layer_norm(x, p.ln2.gamma, p.ln2.beta), p.ffn, drop)


def itb_forward(h_m, h_n, graphs, p, cfg, B, L, collect=None, drop=None):
    """One interaction block: shared SE, graph attention per mode, per-person
    LN + FFN residual. mode == "no_gimsa" keeps the persons fully separate."""
    he_m = se_layer(h_m, p.se, cfg.h, drop)
    he_n = se_layer(h_n, p.se, cfg.h, drop)
    if cfg.mode == "no_gimsa":
        hat_m, hat_n = he_m, he_n
    else:
        hat_m, hat_n = gi_msa(he_m, he_n, graphs, p.gi, B, L, mode=cfg.mode,
                              scale_mode=cfg.scale_mode, collect=collect)
    out_m = ffn_forward(T.layer_norm(hat_m, p.out_m.ln.gamma, p.out_m.ln.beta),
                        p.out_m.ffn, drop) + hat_m
    out_n = ffn_forward(T.layer_norm(hat_n, p.out_n.ln.gamma, p.out_n.ln.beta),
                        p.out_n.ffn, drop) + hat_n
    return out_m, out_n


class IGFormer:
    """Config + named parameters; `forward` maps one sample to class logits."""

    def __init__(self, cfg, part_map, registry, itbs, conv_kernel, conv_bias,
                 posenc, head_w, head_b):
        self.cfg = cfg
        self.part_map = part_map
        self.registry = registry
        self.itbs = itbs
        self.conv_kernel = conv_kernel
        self.conv_bias = conv_bias
        self.posenc = posenc
        self.head_w = head_w
        self.head_b = head_b

    def named_parameters(self):
        return self.registry

    def zero_grads(self):
        for p in self.registry.values():
            p.grad = None

    @contextlib.contextmanager
    def inference(self):
        """Forwards inside this block record no tape: the parameters stop
        requiring gradients, so no op builds a backward closure or keeps its
        parents. Logits are bit-identical to a taped forward. Every
        parameter gets its flag back on exit, also when the block raises."""
        params = list(self.registry.values())
        flags = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            yield self
        finally:
            for p, flag in zip(params, flags):
                p.requires_grad = flag

    def tokenize(self, seq):
        bpt = spm_forward(seq, self.part_map, self.cfg.spm,
                          self.conv_kernel, self.conv_bias)
        return add_positional(bpt, self.posenc)

    def forward(self, sample, graphs, collect=None, dropout_rng=None):
        """Logits (1 x num_classes) for one padded sample with prebuilt graphs."""
        cfg = self.cfg
        drop = None
        if dropout_rng is not None and cfg.dropout > 0.0:
            drop = lambda x: T.dropout(x, cfg.dropout, dropout_rng)
        bpt_a = self.tokenize(sample.person_a)
        bpt_b = self.tokenize(sample.person_b)
        if graphs.M != bpt_a.M:
            raise ConfigError(f"graphs built for {graphs.M} tokens, model produces {bpt_a.M}")
        h_m, h_n = bpt_a.tokens, bpt_b.tokens
        for i, p in enumerate(self.itbs):
            block_collect = None
            if collect is not None:
                block_collect = collect.setdefault(f"itb{i}", {})
            h_m, h_n = itb_forward(h_m, h_n, graphs, p, cfg, bpt_a.B, bpt_a.L,
                                   collect=block_collect, drop=drop)
        # Union mean over both persons' tokens; written as the average of the
        # two per-person means (identical for equal M, and exactly symmetric
        # under a person swap).
        pooled = (T.mean_axis(h_m, 0, keepdims=True)
                  + T.mean_axis(h_n, 0, keepdims=True)) * 0.5
        return T.linear(pooled, self.head_w, self.head_b)

    def loss(self, sample, graphs, dropout_rng=None):
        if not 0 <= sample.label < self.cfg.num_classes:
            raise ConfigError(f"label {sample.label} outside 0..{self.cfg.num_classes - 1}")
        logits = self.forward(sample, graphs, dropout_rng=dropout_rng)
        return T.cross_entropy(logits, [sample.label]), logits


def trunc_normal(rng, shape, std=TRUNC_STD):
    """Normal(0, std) resampled until everything lies within 2 std."""
    x = rng.normal(scale=std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(scale=std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


def _assemble(cfg, part_map, param):
    """The model's structure, one parameter at a time.

    `param(name, shape, init)` supplies each parameter's tensor; `init` names
    its initializer ("fan_in", "mixer", "posenc", "zeros" or "ones"). The walk
    visits parameters in the seeded initializer's draw order and registers
    them in checkpoint order; with tied person branches the second person
    reuses the first person's objects.
    """
    if part_map is None:
        part_map = builtin_part_map(15)
    registry = {}

    def make(name, init, *shape):
        t = param(name, shape, init)
        registry[name] = t
        return t

    def ln(prefix):
        return LayerNormParams(make(f"{prefix}.gamma", "ones", cfg.D),
                               make(f"{prefix}.beta", "zeros", cfg.D))

    def ffn(prefix):
        return FfnParams(make(f"{prefix}.w1", "fan_in", cfg.D, cfg.ffn_width),
                         make(f"{prefix}.b1", "zeros", cfg.ffn_width),
                         make(f"{prefix}.w2", "fan_in", cfg.ffn_width, cfg.D),
                         make(f"{prefix}.b2", "zeros", cfg.D))

    spm_cfg = cfg.spm
    conv_kernel = make("spm.conv.kernel", "fan_in", cfg.D, spm_cfg.P, spm_cfg.P, 3)
    conv_bias = make("spm.conv.bias", "zeros", cfg.D)
    posenc = make("spm.posenc", "posenc", spm_cfg.M(part_map.B), cfg.D)

    d = cfg.D // cfg.h
    itbs = []
    for i in range(cfg.N):
        se = SeParams(
            ln1=ln(f"itb{i}.se.ln1"),
            wq=make(f"itb{i}.se.attn.wq", "fan_in", cfg.D, cfg.D),
            bq=make(f"itb{i}.se.attn.bq", "zeros", cfg.D),
            wk=make(f"itb{i}.se.attn.wk", "fan_in", cfg.D, cfg.D),
            bk=make(f"itb{i}.se.attn.bk", "zeros", cfg.D),
            wv=make(f"itb{i}.se.attn.wv", "fan_in", cfg.D, cfg.D),
            bv=make(f"itb{i}.se.attn.bv", "zeros", cfg.D),
            wo=make(f"itb{i}.se.attn.wo", "fan_in", cfg.D, cfg.D),
            bo=make(f"itb{i}.se.attn.bo", "zeros", cfg.D),
            ln2=ln(f"itb{i}.se.ln2"),
            ffn=ffn(f"itb{i}.se.ffn"),
        )
        alphas = [make(f"itb{i}.gi.h{j}.alpha", "ones") for j in range(cfg.h)]
        gi = GiMsaParams(
            wq=[make(f"itb{i}.gi.h{j}.wq", "fan_in", d, d) for j in range(cfg.h)],
            wk=[make(f"itb{i}.gi.h{j}.wk", "fan_in", d, d) for j in range(cfg.h)],
            wv=[make(f"itb{i}.gi.h{j}.wv", "fan_in", d, d) for j in range(cfg.h)],
            alpha=alphas,
            wm=make(f"itb{i}.gi.wm", "mixer", cfg.D, cfg.D),
            wn=None,
        )
        out_m = BranchParams(ln=ln(f"itb{i}.out_m.ln"), ffn=ffn(f"itb{i}.out_m.ffn"))
        if cfg.tie_person_branches:
            gi.wn = gi.wm
            out_n = out_m
        else:
            gi.wn = make(f"itb{i}.gi.wn", "mixer", cfg.D, cfg.D)
            out_n = BranchParams(ln=ln(f"itb{i}.out_n.ln"), ffn=ffn(f"itb{i}.out_n.ffn"))
        itbs.append(ItbParams(se=se, gi=gi, out_m=out_m, out_n=out_n))

    head_w = make("head.w", "fan_in", cfg.D, cfg.num_classes)
    head_b = make("head.b", "zeros", cfg.num_classes)
    return IGFormer(cfg, part_map, registry, itbs, conv_kernel, conv_bias,
                    posenc, head_w, head_b)


def init_params(cfg, seed=0, part_map=None):
    """Deterministic fresh parameters: fan-in-scaled truncated-normal maps,
    a std-0.02 positional table, zero biases, unit LayerNorm gains, and
    graph-fusion scalars at exactly 1.

    Linear maps use std 1/sqrt(fan_in) so every projection preserves signal
    scale at initialization; a uniform tiny std stalls from-scratch SGD at
    the reference learning rate (the interaction mixer multiplies the whole
    residual stream, so it additionally starts near the identity).
    """
    rng = np.random.default_rng(seed)

    def draw(name, shape, init):
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        elif init == "posenc":
            data = trunc_normal(rng, shape)
        elif init == "mixer":
            data = np.eye(shape[0]) + trunc_normal(rng, shape, std=1.0 / math.sqrt(shape[0]))
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) > 2 else shape[0]
            data = trunc_normal(rng, shape, std=1.0 / math.sqrt(fan_in))
        return T.Tensor(data, requires_grad=True)

    return _assemble(cfg, part_map, draw)


def restore_params(cfg, params, part_map=None):
    """The model whose parameters are the arrays `params` ({name: array}, as
    `load_checkpoint` returns them), adopted without a copy and without
    drawing any random numbers. Raises ConfigError when the arrays do not fit
    the structure `cfg` describes."""
    shapes = {}

    def take(name, shape, init):
        shapes[name] = shape
        arr = params.get(name)
        if arr is None or arr.shape != shape:
            arr = np.broadcast_to(0.0, shape)  # placeholder; rejected below
        return T.Tensor(arr, requires_grad=True)

    model = _assemble(cfg, part_map, take)
    missing = sorted(set(shapes) - set(params))
    extra = sorted(set(params) - set(shapes))
    if missing or extra:
        raise ConfigError(f"checkpoint does not fit model: missing {missing}, extra {extra}")
    for name, arr in params.items():
        if arr.shape != shapes[name]:
            raise ConfigError(f"{name}: checkpoint shape {arr.shape} != model {shapes[name]}")
    return model


def expected_param_count(cfg, B=5):
    """Closed-form parameter count for the audit test."""
    D, C = cfg.D, cfg.num_classes
    inner = cfg.ffn_width
    M = cfg.spm.M(B)
    conv = D * cfg.spm.P * cfg.spm.P * 3 + D
    ffn = D * inner + inner + inner * D + D
    ln = 2 * D
    se = 2 * ln + 4 * (D * D + D) + ffn
    d = D // cfg.h
    gi = cfg.h * (3 * d * d + 1) + D * D * (1 if cfg.tie_person_branches else 2)
    branches = (1 if cfg.tie_person_branches else 2) * (ln + ffn)
    itb = se + gi + branches
    return conv + M * D + cfg.N * itb + D * C + C


# -- checkpoints ----------------------------------------------------------------

CHECKPOINT_MAGIC = b"IGFC"
MAX_RANK = 32  # the most axes any numpy version supports


def save_checkpoint(model, digest):
    buf = io.BytesIO()
    digest_b = digest.encode("utf-8")
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", len(digest_b)))
    buf.write(digest_b)
    registry = model.named_parameters()
    buf.write(struct.pack("<I", len(registry)))
    for name, t in registry.items():
        name_b = name.encode("utf-8")
        buf.write(struct.pack("<I", len(name_b)))
        buf.write(name_b)
        shape = t.data.shape
        buf.write(struct.pack("<I", len(shape)))
        for extent in shape:
            buf.write(struct.pack("<I", extent))
        buf.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return buf.getvalue()


def load_checkpoint(fh):
    """Returns (digest, {name: array}) read from the binary file object `fh`
    (wrap bytes in io.BytesIO), each array straight into its own buffer."""
    r = Reader(fh, CHECKPOINT_MAGIC)
    digest = r.text(*r.unpack("<I", "digest length"), "digest")
    (count,) = r.unpack("<I", "parameter count")
    params = {}
    for _ in range(count):
        name = r.text(*r.unpack("<I", "parameter name length"), "parameter name")
        if name in params:
            raise ParseError(f"parameter {name!r} appears twice")
        (rank,) = r.unpack("<I", f"{name} rank")
        if rank > MAX_RANK:
            raise ParseError(f"{name} has rank {rank}, more than {MAX_RANK}")
        params[name] = r.array(r.unpack(f"<{rank}I", f"{name} shape"), "<f8", f"{name} data")
    r.end("checkpoint")
    return digest, params
