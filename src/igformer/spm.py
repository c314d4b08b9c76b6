"""Body-part tokenization: partition a skeleton into body parts, resize each
part's joint axis to a common width, and project temporal patches into an
embedding sequence.

The patch windows are constants built in plain numpy (no gradient flows to
the coordinates); one tape op projects them with the shared kernel.

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
        return conv_steps(self.T, self.P, self.stride, self.padding)

    @property
    def window_starts(self):
        """First frame of each temporal window: window j covers frames
        [j*stride - padding, j*stride - padding + P) of the unpadded sequence."""
        return np.arange(self.L) * self.stride - self.padding

    def M(self, B):
        return B * self.L


def conv_steps(t, p, stride, padding):
    """Number of temporal windows: ceil((T + 2*padding - P + 1) / stride)."""
    span = t + 2 * padding - p + 1
    return -(-span // stride)


def resize_weights(source, target):
    """Align-corners interpolation matrix W (target x source), rows summing to 1.

    Output i samples source coordinate i*(source-1)/(target-1), so the
    endpoints are kept exactly and a single source point is broadcast.
    """
    if source < 1 or target < 1:
        raise ShapeError("resize extents must be >= 1")
    w = np.zeros((target, source))
    if source == 1:
        w[:, 0] = 1.0
        return w
    if target == 1:
        w[0, 0] = 1.0
        return w
    for i in range(target):
        pos = i * (source - 1) / (target - 1)
        j0 = min(int(pos), source - 2)
        frac = pos - j0
        w[i, j0] = 1.0 - frac
        w[i, j0 + 1] = frac
    return w


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


def partition(seq, part_map):
    """Split a sequence into per-part coordinate blocks, in map order."""
    if part_map.joint_count != seq.J:
        raise ConfigError(f"part map covers {part_map.joint_count} joints, "
                          f"sequence has {seq.J}")
    return [seq.coords[:, idx, :] for idx in part_map.indices()]


def patch_windows(seq, part_map, cfg):
    """The (B, L, P, P, 3) windows of one person at the default dtype: each
    part's joints resized to P, zero-padded in time, and cut at
    `cfg.window_starts`."""
    if seq.T != cfg.T:
        raise ConfigError(f"sequence has {seq.T} frames, config expects {cfg.T}; pad first")
    padded = np.zeros((part_map.B, cfg.T + 2 * cfg.padding, cfg.P, 3))
    for resized, block in zip(padded[:, cfg.padding:cfg.padding + cfg.T],
                              partition(seq, part_map)):
        resized[:] = np.einsum("pj,tjc->tpc", resize_weights(block.shape[1], cfg.P), block)
    frames = cfg.window_starts[:, None] + cfg.padding + np.arange(cfg.P)  # (L, P), padded
    windows = np.take(padded, frames, axis=1)  # C-contiguous, which padded[:, frames] is not
    return windows.astype(T.default_dtype(), copy=False)


def spm_forward(seq, part_map, cfg, kernel, bias):
    """Tokenize one person: the patch windows, projected by `kernel`/`bias`
    (D x P x P x 3, D), which all parts share, in one tape op."""
    tokens = T.project_patches(patch_windows(seq, part_map, cfg), kernel, bias)
    return BptSequence(tokens, B=part_map.B, L=cfg.L)


def add_positional(bpt, posenc):
    """Add the shared learnable positional table (same tensor for both persons)."""
    if posenc.shape != bpt.tokens.shape:
        raise ShapeError(f"positional table {posenc.shape} != tokens {bpt.tokens.shape}")
    return BptSequence(T.add(bpt.tokens, posenc), B=bpt.B, L=bpt.L)
