"""Distance-based sparse interaction graphs.

Built once per sample from raw coordinates: per-part centroids, temporal
downsampling aligned with the tokenizer's patch windows, cross-person
Euclidean distances, and per-row k-nearest thresholding (ties at the k-th
smallest distance are all kept). Token order is the tokenizer's time-major
order, so graph row t*B + p describes body part p over the same temporal
span as BPT token (t, p).

Sidecar file layout (little-endian):
    magic b"IGFD" | uint32 M | uint32 k |
    DSIG a->b as packbits(M*M row-major) | DSIG b->a likewise
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, Reader

SIDECAR_MAGIC = b"IGFD"


@dataclass
class DistanceGraphConfig:
    """Neighbor count of the k-NN threshold; at most M, which `prepare` checks."""

    k: int = 15

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k={self.k} must be at least 1")


@dataclass
class InteractionGraphs:
    """Per-direction distance matrices and their binarized k-NN graphs, all M x M."""

    A_ab: np.ndarray
    A_ba: np.ndarray
    dsig_ab: np.ndarray
    dsig_ba: np.ndarray
    k: int

    @property
    def M(self):
        return self.dsig_ab.shape[0]

    def swapped(self):
        """The same graphs seen from the other person's side."""
        return InteractionGraphs(self.A_ba, self.A_ab, self.dsig_ba, self.dsig_ab, self.k)


def _padded_mean(values, index, counts):
    """Means of `values` rows gathered by `index` (groups, width) along axis 0,
    where group g uses its first counts[g] columns. Short groups point their
    spare columns at an appended -0.0 row, which adds nothing to any sum
    (x + -0.0 == x, signed zeros included), so each group's sum runs over
    its own rows in order, as a loop would, before the division."""
    padded = np.concatenate([values, np.full((1, *values.shape[1:]), -0.0)])
    sums = padded[index].sum(axis=1)
    return sums / counts.reshape(-1, *[1] * (sums.ndim - 1))


def part_centroids(seq, part_map):
    """Per-frame arithmetic mean of each part's joint coordinates, (B, T, 3)."""
    idx = part_map.indices()
    counts = np.array([i.size for i in idx])
    index = np.full((len(idx), counts.max()), seq.J, dtype=np.intp)
    for row, i in zip(index, idx):
        row[:i.size] = i
    joints_first = seq.coords.swapaxes(0, 1)  # (J, T, 3)
    return _padded_mean(joints_first, index, counts)


def downsample_to_steps(traj, cfg):
    """Average a trajectory over the tokenizer's windows along axis 0:
    (T, ...) -> (L, ...).

    Only the in-range frames of each window (`SpmConfig.window_starts`)
    contribute (clipped windows, no zero frames).
    """
    t = traj.shape[0]
    if t != cfg.T:
        raise ConfigError(f"trajectory has {t} frames, config expects {cfg.T}")
    start = cfg.window_starts
    lo, hi = np.maximum(start, 0), np.minimum(start + cfg.P, t)
    empty = np.flatnonzero(hi <= lo)
    if empty.size:
        raise ConfigError(f"window {empty[0]} falls entirely outside the sequence")
    frames = lo[:, None] + np.arange(cfg.P)
    index = np.where(frames < hi[:, None], frames, t)  # (L, P)
    return _padded_mean(traj, index, hi - lo)


def token_trajectory(seq, part_map, cfg):
    """(M, 3) centroid-per-token matrix in time-major token order."""
    frames_first = part_centroids(seq, part_map).swapaxes(0, 1)  # (T, B, 3)
    return downsample_to_steps(frames_first, cfg).reshape(-1, 3)


def pairwise_distance(tokens_a, tokens_b):
    """A[a, b] = Euclidean distance between token a of one person and b of the other."""
    diff = tokens_a[:, None, :] - tokens_b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def knn_threshold(A, k):
    """Row-wise k-NN binarization: 1 where A[a, b] <= k-th smallest of row a."""
    m = A.shape[1]
    if not 1 <= k <= m:
        raise ConfigError(f"k={k} outside 1..{m}")
    kth = np.partition(A, k - 1, axis=1)[:, k - 1:k]
    return (A <= kth).astype(np.float64)


def build_interaction_graphs(sample, part_map, spm_cfg, k):
    """Distance matrices and k-NN graphs for both directions of one sample."""
    ta = token_trajectory(sample.person_a, part_map, spm_cfg)
    tb = token_trajectory(sample.person_b, part_map, spm_cfg)
    a_ab = pairwise_distance(ta, tb)
    a_ba = a_ab.T.copy()
    return InteractionGraphs(a_ab, a_ba, knn_threshold(a_ab, k), knn_threshold(a_ba, k), k)


# -- sidecar ---------------------------------------------------------------

def _pack(matrix):
    return np.packbits(matrix.astype(bool).reshape(-1)).tobytes()


def write_sidecar(graphs):
    buf = io.BytesIO()
    buf.write(SIDECAR_MAGIC)
    buf.write(struct.pack("<II", graphs.M, graphs.k))
    buf.write(_pack(graphs.dsig_ab))
    buf.write(_pack(graphs.dsig_ba))
    return buf.getvalue()


def read_sidecar(fh):
    """Returns (M, k, dsig_ab, dsig_ba) read from the binary file object `fh`;
    distance matrices are not stored."""
    r = Reader(fh, SIDECAR_MAGIC)
    m, k = r.unpack("<II", "sidecar header")
    packed = r.array((2, (m * m + 7) // 8), np.uint8, "DSIG bits")
    r.end("sidecar")
    ab, ba = (np.unpackbits(bits)[:m * m].reshape(m, m).astype(np.float64) for bits in packed)
    return m, k, ab, ba
