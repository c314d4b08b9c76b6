"""Graph-interaction multi-head self-attention.

Each head chunks both persons' token channels, learns a dense cross-person
semantic graph from query features and context-augmented key features,
fuses it with the binary distance graph through a row softmax weighted by a
trainable scalar, and aggregates the other person's value features with a
residual. Query/key/value weights are shared between the two directions;
the binary distance graph is shared across heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

MODES = ("full", "sdig_only", "dsig_only", "no_gimsa")
SCALE_MODES = ("per_head", "full_dim")


@dataclass
class GiMsaParams:
    """Per-head d x d maps, per-head fusion scalars, per-person output maps."""

    wq: list   # h tensors (d, d), shared by both directions
    wk: list
    wv: list
    alpha: list  # h scalar tensors
    wm: T.Tensor  # (D, D)
    wn: T.Tensor  # (D, D); the same object as wm when person branches are tied

    def __post_init__(self):
        if not (len(self.wq) == len(self.wk) == len(self.wv) == len(self.alpha)):
            raise ConfigError("per-head parameter lists disagree in length")

    @property
    def h(self):
        return len(self.wq)

    @property
    def d(self):
        return self.wq[0].shape[0]


def contexts(H, B, L):
    """Temporal and spatial context of a time-major M x d sequence.

    Temporal context of part p is the mean of its L tokens, broadcast back
    to all L positions; spatial context of step t is the mean of its B
    tokens, broadcast to all B positions. Both come back as M x d.
    """
    m, d = H.shape
    if m != B * L:
        raise ShapeError(f"{m} tokens do not factor as L={L} x B={B}")
    grid = T.reshape(H, (L, B, d))
    tc = T.broadcast_to(T.mean_axis(grid, 0, keepdims=True), (L, B, d))
    sc = T.broadcast_to(T.mean_axis(grid, 1, keepdims=True), (L, B, d))
    return T.reshape(tc, (m, d)), T.reshape(sc, (m, d))


def sdig(h_query, h_key, wq, wk, B, L, scale):
    """Semantic graph logits: (h_query Wq) (ctx(h_key) Wk)^T / scale."""
    q = T.matmul(h_query, wq)
    tc, sc = contexts(h_key, B, L)
    k = T.matmul(h_key + tc + sc, wk)
    return T.matmul(q, T.transpose(k)) * (1.0 / scale)


def fuse_graphs(dsig_const, sdig_logits, alpha):
    """Row-stochastic fusion: softmax(DSIG + alpha * SDIG) per row."""
    return T.softmax_rows(T.add(T.as_tensor(dsig_const), alpha * sdig_logits))


def head_scale(d, D, scale_mode):
    """Attention logit divisor: sqrt of the head width or of the full width."""
    if scale_mode not in SCALE_MODES:
        raise ConfigError(f"unknown scale mode {scale_mode!r}")
    return math.sqrt(d if scale_mode == "per_head" else D)


def gi_sa(h_me, h_ne, graphs, wq, wk, wv, alpha, B, L, scale,
          mode="full", collect=None):
    """One head of graph-interaction self-attention, both directions.

    Returns (hat_me, hat_ne) where hat_me = R(DSIG, SDIG) (h_ne Wv) + h_me
    and symmetrically for the other person.
    """
    def one_direction(h_src, h_other, dsig_const, tag):
        if mode == "dsig_only":
            # alpha pinned to 0 and the semantic graph detached: the fused
            # weights reduce to softmax of the binary graph alone.
            r = T.softmax_rows(T.as_tensor(dsig_const))
        else:
            logits = sdig(h_src, h_other, wq, wk, B, L, scale)
            d_const = np.zeros_like(dsig_const) if mode == "sdig_only" else dsig_const
            r = fuse_graphs(d_const, logits, alpha)
            if collect is not None:
                collect.setdefault(f"sdig_{tag}", []).append(logits.data.copy())
        if collect is not None:
            collect.setdefault(f"r_{tag}", []).append(r.data.copy())
        values = T.matmul(h_other, wv)
        return T.matmul(r, values) + h_src

    hat_me = one_direction(h_me, h_ne, graphs.dsig_ab, "ab")
    hat_ne = one_direction(h_ne, h_me, graphs.dsig_ba, "ba")
    return hat_me, hat_ne


def gi_msa(h_me, h_ne, graphs, params, B, L, mode="full",
           scale_mode="per_head", collect=None):
    """Multi-head graph interaction: chunk channels, run gi_sa per head with
    its own fusion scalar and the shared binary graph, concat, project."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    m, dim = h_me.shape
    h = params.h
    if dim % h:
        raise ConfigError(f"hidden size {dim} not divisible by {h} heads")
    d = dim // h
    if d != params.d:
        raise ShapeError(f"head width {d} != parameter width {params.d}")
    if graphs.M != m:
        raise ShapeError(f"graphs have {graphs.M} tokens, sequences have {m}")
    scale = head_scale(d, dim, scale_mode)
    outs_m, outs_n = [], []
    for i in range(h):
        chunk_me = T.slice_axis(h_me, 1, i * d, (i + 1) * d)
        chunk_ne = T.slice_axis(h_ne, 1, i * d, (i + 1) * d)
        hat_me, hat_ne = gi_sa(chunk_me, chunk_ne, graphs,
                               params.wq[i], params.wk[i], params.wv[i],
                               params.alpha[i], B, L, scale, mode=mode,
                               collect=collect)
        outs_m.append(hat_me)
        outs_n.append(hat_ne)
    out_m = T.matmul(T.concat(outs_m, axis=1), params.wm)
    out_n = T.matmul(T.concat(outs_n, axis=1), params.wn)
    return out_m, out_n


def matrix_to_text(a):
    """Graph dump format: `rows cols` header, then one line of decimals per row."""
    a = np.asarray(a)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text):
    lines = text.strip().splitlines()
    rows, cols = (int(v) for v in lines[0].split())
    a = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    if a.shape != (rows, cols):
        raise ShapeError(f"dump header says {(rows, cols)}, body is {a.shape}")
    return a
