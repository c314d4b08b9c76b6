"""Seeded NTU `.skeleton` text files with known ground truth.

Each file holds two interacting persons with 25 Kinect-v2 joints, in some
files a third body, and a clip length on one side or the other of the
tokenizer's frame count so that padding both repeats and truncates. The
recipe of file i (length factor, body layout, label) does not depend on
the seed, so every seed parses the same amount of text; the seed moves the
people, their motion and their body IDs.
"""

from __future__ import annotations

import numpy as np

# Standing pose in meters (x lateral, y up, z depth), Kinect-v2 joint order.
_POSE = np.array([
    [0.00, 0.95, 0.0], [0.00, 1.20, 0.0], [0.00, 1.48, 0.0], [0.00, 1.62, 0.0],
    [-0.20, 1.42, 0.0], [-0.25, 1.17, 0.0], [-0.28, 0.95, 0.0], [-0.29, 0.88, 0.0],
    [0.20, 1.42, 0.0], [0.25, 1.17, 0.0], [0.28, 0.95, 0.0], [0.29, 0.88, 0.0],
    [-0.10, 0.92, 0.0], [-0.11, 0.50, 0.0], [-0.12, 0.10, 0.0], [-0.12, 0.04, 0.1],
    [0.10, 0.92, 0.0], [0.11, 0.50, 0.0], [0.12, 0.10, 0.0], [0.12, 0.04, 0.1],
    [0.00, 1.40, 0.0], [-0.30, 0.82, 0.0], [-0.26, 0.86, 0.03], [0.30, 0.82, 0.0],
    [0.26, 0.86, 0.03],
])
LENGTH_FACTORS = (0.75, 1.25, 0.5, 1.5, 0.9, 1.1, 1.0, 1.2)
# pair: two bodies in every frame. short3: a third body seen first but only
# briefly. tie: the second person and a third body share a presence count.
# long3: a third body outlasts the second person and replaces it.
LAYOUTS = ("pair", "short3", "tie", "long3")
CLASSES = 4
_JOINT_TAIL = "0.5 0.5 960.0 540.0 0.9 0.0 0.4 0.0 2"
_BODY_TAIL = "0 1 1 1 1 0 0.01 -0.02 2"


def _person(rng, frames, x0, x1, depth):
    """(frames, 25, 3) coordinates of one body walking from x0 to x1."""
    u = np.linspace(0.0, 1.0, frames)[:, None, None]
    pose = _POSE + rng.normal(scale=0.01, size=_POSE.shape)
    path = np.zeros((frames, 1, 3))
    path[..., 0] = (x0 + (x1 - x0) * u)[..., 0]
    path[..., 2] = depth + 0.05 * np.sin(2 * np.pi * u + rng.uniform(0, 2 * np.pi))[..., 0]
    coords = pose + path + rng.normal(scale=0.01, size=(frames, 25, 3))
    return np.round(coords, 6)


def _presence(layout, frames):
    """Frame masks of the bodies in file order: person A, person B, extra."""
    every = np.ones(frames, dtype=bool)
    part = np.zeros(frames, dtype=bool)
    if layout == "pair":
        return [every, every]
    if layout == "short3":
        part[:max(1, frames // 4)] = True
        return [every, every, part]
    half = frames // 2
    if layout == "tie":
        early, late = part.copy(), part.copy()
        early[:half] = True
        late[frames - half:] = True
        return [every, early, late]
    late = part.copy()
    late[frames // 3:] = True
    return [every, late, every]


def make_files(seed, count, target_frames):
    """[(file stem, text, per-frame [(body id, coords)], label)] for `count` files."""
    rng = np.random.default_rng((seed, 0x4E54))
    files = []
    for i in range(count):
        frames = round(LENGTH_FACTORS[i % len(LENGTH_FACTORS)] * target_frames)
        layout = LAYOUTS[i % len(LAYOUTS)]
        label = i % CLASSES
        masks = _presence(layout, frames)
        gap = rng.uniform(1.0, 2.5)
        step = 0.3 * (label - 1.5)
        bodies = [_person(rng, frames, -gap / 2, -gap / 2 + step, 3.0),
                  _person(rng, frames, gap / 2, gap / 2 - step, 3.2),
                  _person(rng, frames, 3.0, 3.5, 4.0)][:len(masks)]
        ids = [str(v) for v in 72057594037900000 + rng.choice(99999, len(masks), replace=False)]
        order = rng.permutation(len(masks))  # the order bodies are listed in a frame
        lines = [str(frames)]
        per_frame = []
        for f in range(frames):
            present = [b for b in order if masks[b][f]]
            lines.append(str(len(present)))
            listed = []
            for b in present:
                lines.append(f"{ids[b]} {_BODY_TAIL}")
                lines.append("25")
                xyz = bodies[b][f]
                lines.extend(f"{x!r} {y!r} {z!r} {_JOINT_TAIL}" for x, y, z in xyz.tolist())
                listed.append((ids[b], xyz))
            per_frame.append(listed)
        stem = f"S001C001P{i:03d}R001A{label + 1:03d}"
        files.append((stem, "\n".join(lines) + "\n", per_frame, label))
    return files
