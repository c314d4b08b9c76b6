"""Correctness oracles kept apart from the program under test.

Nothing here imports the package's tests or its `verify` battery. The
readers follow the documented byte layouts, the distance-graph oracle is a
scalar loop, the body-ranking rule is restated from the NTU format's
documented behaviour, and the gradient and update checks use central finite
differences and the Nesterov closed form.
"""

from __future__ import annotations

import math
import struct

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- file formats ----------------------------------------------------------

def read_igf(data):
    """(label, coords_a, coords_b) from canonical sample bytes."""
    require(data[:4] == b"IGF1", f"bad .igf magic {data[:4]!r}")
    j, t, label, sid_len = struct.unpack("<IIiI", data[4:20])
    off = 20 + sid_len
    n = t * j * 3
    require(len(data) == off + 16 * n, ".igf length does not match its header")
    a = np.frombuffer(data, "<f8", n, off).reshape(t, j, 3)
    b = np.frombuffer(data, "<f8", n, off + 8 * n).reshape(t, j, 3)
    return label, a, b


def read_igfd(data):
    """(M, k, dsig_ab, dsig_ba) as bool arrays from sidecar bytes."""
    require(data[:4] == b"IGFD", f"bad .igfd magic {data[:4]!r}")
    m, k = struct.unpack("<II", data[4:12])
    nbytes = (m * m + 7) // 8
    require(len(data) == 12 + 2 * nbytes, ".igfd length does not match its header")
    bits = np.unpackbits(np.frombuffer(data, np.uint8, 2 * nbytes, 12))
    ab = bits[:m * m].reshape(m, m).astype(bool)
    ba = bits[8 * nbytes:8 * nbytes + m * m].reshape(m, m).astype(bool)
    return m, k, ab, ba


def parse_confusion(text):
    """Confusion rows printed after the 'confusion' header of an eval report."""
    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("confusion")]
    require(len(starts) == 1, "eval report has no single confusion header")
    rows = [[float(v) for v in line.split()] for line in lines[starts[0] + 1:] if line.strip()]
    return np.array(rows)


# -- NTU body ranking ------------------------------------------------------

def ntu_kept_bodies(frames):
    """Coordinates the NTU ranking rule keeps, in order of first appearance.

    `frames` lists, per frame, the (body_id, (25, 3) coords) pairs in file
    order. The two bodies present in the most frames are kept, a tie going
    to the smaller body ID; frames where a kept body is absent read zero.
    """
    count, first = {}, {}
    for f, bodies in enumerate(frames):
        for pos, (body_id, _) in enumerate(bodies):
            count[body_id] = count.get(body_id, 0) + 1
            first.setdefault(body_id, (f, pos))
    kept = sorted(count, key=lambda b: (-count[b], int(b)))[:2]
    kept.sort(key=lambda b: first[b])
    out = []
    for body_id in kept:
        coords = np.zeros((len(frames), 25, 3))
        for f, bodies in enumerate(frames):
            for other, xyz in bodies:
                if other == body_id:
                    coords[f] = xyz
        out.append(coords)
    return out


def repeat_pad(coords, target):
    """Cyclic frame repetition to `target` frames, truncating longer clips."""
    t = coords.shape[0]
    return coords[[f % t for f in range(target)]]


# -- distance graphs ---------------------------------------------------------

def _tokens(coords, parts, spm):
    """(M, 3) part-centroid window means in time-major token order."""
    t = coords.shape[0]
    per_part = []
    for idx in parts:
        cent = [[sum(coords[f, j, ax] for j in idx) / len(idx) for ax in range(3)]
                for f in range(t)]
        steps = []
        for w in range(spm.L):
            lo = max(0, w * spm.stride - spm.padding)
            hi = min(t, w * spm.stride - spm.padding + spm.P)
            steps.append([sum(cent[f][ax] for f in range(lo, hi)) / (hi - lo)
                          for ax in range(3)])
        per_part.append(steps)
    return [per_part[p][w] for w in range(spm.L) for p in range(len(parts))]


def dsig_oracle(coords_a, coords_b, parts, spm, k):
    """Both binary k-NN distance graphs of a padded pair, by scalar loops.

    A row keeps every column whose distance is at most the row's k-th
    smallest distance, so ties at the threshold are all kept.
    """
    ta, tb = _tokens(coords_a, parts, spm), _tokens(coords_b, parts, spm)
    m = len(ta)

    def distance(p, q):
        diffs = [p[ax] - q[ax] for ax in range(3)]
        return math.sqrt(sum(d * d for d in diffs))

    dist = [[distance(ta[a], tb[b]) for b in range(m)] for a in range(m)]

    def knn(rows):
        out = np.zeros((m, m), dtype=bool)
        for a, row in enumerate(rows):
            kth = sorted(row)[k - 1]
            for b, d in enumerate(row):
                out[a, b] = d <= kth
        return out

    return knn(dist), knn([list(col) for col in zip(*dist)])


# -- gradients and the optimizer ---------------------------------------------

def cross_entropy(logits, label):
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    top = z.max()
    return top + math.log(sum(math.exp(v - top) for v in z)) - z[label]


def central_difference(loss_fn, array, index, step=1e-5):
    """d loss / d array[index] by a central difference; array is restored."""
    original = array[index]
    h = step * max(1.0, abs(original))
    array[index] = original + h
    up = loss_fn()
    array[index] = original - h
    down = loss_fn()
    array[index] = original
    return (up - down) / (2 * h)


def check_gradient(name, tape, probe, rtol=1e-4, atol=1e-7):
    require(abs(tape - probe) <= atol + rtol * abs(probe),
            f"{name}: tape gradient {tape:.10g} vs finite difference {probe:.10g}")


def nesterov(w, g, v, lr, momentum):
    """Closed form of one step: v' = mu v + g, w' = w - lr (g + mu v')."""
    v_next = momentum * v + g
    return w - lr * (g + momentum * v_next), v_next


def check_update(name, expected, actual):
    require(np.array_equal(expected, actual),
            f"{name}: update differs from the Nesterov closed form "
            f"(max |diff| {np.abs(expected - actual).max():.3g})")
