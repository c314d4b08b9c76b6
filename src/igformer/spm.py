"""Body-part tokenization: partition a skeleton into body parts, resize each
part's joint axis to a common width, and project temporal patches into an
embedding sequence.

The resulting token sequence is time-major: token index(t, p) = t*B + p for
time step t in [0, L) and part p in [0, B). The distance graphs in
`graphs` use the identical ordering, so row i of a graph and token i of a
sequence always describe the same (time step, body part) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError


@dataclass
class SpmConfig:
    """Geometry of the tokenizer; defaults give L=25 steps and M=125 tokens."""

    P: int = 16
    stride: int = 10
    padding: int = 2
    T: int = 256

    def __post_init__(self):
        if min(self.P, self.stride, self.T) < 1 or self.padding < 0:
            raise ConfigError(f"invalid tokenizer geometry {self}")
        if self.L < 1:
            raise ConfigError(f"geometry {self} yields {self.L} temporal steps")

    @property
    def L(self):
        return T.conv_steps(self.T, self.P, self.stride, self.padding)

    def M(self, B):
        return B * self.L


@dataclass
class BptSequence:
    """M x D token tensor in time-major order plus its (B, L) layout."""

    tokens: T.Tensor
    B: int
    L: int

    def __post_init__(self):
        m = self.B * self.L
        if self.tokens.shape[0] != m:
            raise ShapeError(f"expected {m} tokens for B={self.B}, L={self.L}, "
                             f"got {self.tokens.shape[0]}")

    @property
    def M(self):
        return self.B * self.L

    @property
    def D(self):
        return self.tokens.shape[1]


def time_major_permutation(B, L):
    """Row order mapping part-major stacking (p*L + t) to time-major tokens."""
    return np.array([p * L + t for t in range(L) for p in range(B)], dtype=np.intp)


def partition(seq, part_map):
    """Split a sequence into per-part coordinate blocks, in map order."""
    if part_map.joint_count != seq.J:
        raise ConfigError(f"part map covers {part_map.joint_count} joints, "
                          f"sequence has {seq.J}")
    return [seq.coords[:, idx, :] for idx in part_map.indices()]


def spm_forward(seq, part_map, cfg, kernel, bias):
    """Tokenize one person: partition, resize joints to P, project, interleave.

    `kernel`/`bias` are the projection (D x P x P x 3, D) all parts share.
    """
    if seq.T != cfg.T:
        raise ConfigError(f"sequence has {seq.T} frames, config expects {cfg.T}; pad first")
    parts = partition(seq, part_map)
    B = part_map.B
    outputs = []
    for block in parts:
        resized = T.linear_interp_resize(T.Tensor(block), cfg.P)
        outputs.append(T.conv2d(resized, kernel, bias, stride=cfg.stride, padding=cfg.padding))
    stacked = T.concat(outputs, axis=0)  # part-major: row p*L + t
    tokens = T.permute_rows(stacked, time_major_permutation(B, cfg.L))
    return BptSequence(tokens, B=B, L=cfg.L)


def add_positional(bpt, posenc):
    """Add the shared learnable positional table (same tensor for both persons)."""
    if posenc.shape != bpt.tokens.shape:
        raise ShapeError(f"positional table {posenc.shape} != tokens {bpt.tokens.shape}")
    return BptSequence(T.add(bpt.tokens, posenc), B=bpt.B, L=bpt.L)
