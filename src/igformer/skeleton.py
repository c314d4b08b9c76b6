"""Skeleton ingestion: NTU and SBU parsers, temporal padding, body-part maps,
joint-noise augmentation, and the canonical on-disk sample format.

Canonical sample file layout (little-endian throughout):
    magic b"IGF1" | uint32 J | uint32 T | int32 label |
    uint32 len(source_id) | source_id utf-8 |
    person A coords as T*J*3 float64 | person B coords likewise
"""

from __future__ import annotations

import io
import logging
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, ParseError, Reader, decode_utf8

log = logging.getLogger("igformer")

CANONICAL_MAGIC = b"IGF1"
PART_ORDER = ("left_arm", "right_arm", "left_leg", "right_leg", "torso")

# Joint groupings follow the sensors' published joint orderings
# (Kinect-v2 for 25 joints, the 15-joint two-person capture layout).
_PARTS_25 = {
    "torso": (0, 1, 2, 3, 20),
    "left_arm": (4, 5, 6, 7, 21, 22),
    "right_arm": (8, 9, 10, 11, 23, 24),
    "left_leg": (12, 13, 14, 15),
    "right_leg": (16, 17, 18, 19),
}
_PARTS_15 = {
    "torso": (0, 1, 2),
    "left_arm": (3, 4, 5),
    "right_arm": (6, 7, 8),
    "left_leg": (9, 10, 11),
    "right_leg": (12, 13, 14),
}


@dataclass
class SkeletonSequence:
    """One person's joint trajectory, coords shaped (T, J, 3).

    Units are meters for NTU captures and the normalized units of the
    source file for SBU.
    """

    coords: np.ndarray
    person_index: int = 0

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 3 or self.coords.shape[2] != 3:
            raise ConfigError(f"coords must be (T, J, 3), got {self.coords.shape}")
        if self.coords.shape[0] < 1:
            raise ConfigError("sequence needs at least one frame")
        if not np.isfinite(self.coords).all():
            raise ConfigError("coords contain NaN or Inf")

    @property
    def T(self):
        return self.coords.shape[0]

    @property
    def J(self):
        return self.coords.shape[1]


@dataclass
class InteractionSample:
    """A labeled pair of skeleton sequences sharing T and J."""

    person_a: SkeletonSequence
    person_b: SkeletonSequence
    label: int
    source_id: str = ""

    def __post_init__(self):
        if self.person_a.T != self.person_b.T or self.person_a.J != self.person_b.J:
            raise ConfigError(
                f"persons disagree on (T, J): ({self.person_a.T}, {self.person_a.J}) "
                f"vs ({self.person_b.T}, {self.person_b.J})")


@dataclass
class BodyPartMap:
    """Ordered named joint groups forming a partition of {0..J-1}."""

    parts: tuple  # ((name, (joint indices...)), ...)
    joint_count: int = field(default=0)

    def __post_init__(self):
        parts = tuple((name, tuple(int(i) for i in idx)) for name, idx in self.parts)
        object.__setattr__(self, "parts", parts)
        if self.joint_count == 0:
            self.joint_count = 1 + max(i for _, idx in parts for i in idx)
        seen = set()
        for name, idx in parts:
            if not idx:
                raise ConfigError(f"part {name!r} is empty")
            for i in idx:
                if not 0 <= i < self.joint_count:
                    raise ConfigError(f"part {name!r} index {i} out of range 0..{self.joint_count - 1}")
                if i in seen:
                    raise ConfigError(f"joint {i} assigned to more than one part")
                seen.add(i)
        if len(seen) != self.joint_count:
            missing = sorted(set(range(self.joint_count)) - seen)
            raise ConfigError(f"joints {missing} belong to no part")

    @property
    def B(self):
        return len(self.parts)

    def indices(self):
        return [np.asarray(idx, dtype=np.intp) for _, idx in self.parts]


def builtin_part_map(J):
    """The five-part body map (left arm, right arm, left leg, right leg, torso)."""
    table = {25: _PARTS_25, 15: _PARTS_15}.get(J)
    if table is None:
        raise ConfigError(f"no built-in part map for J={J}; only J=15 and J=25 are supported")
    return BodyPartMap(tuple((name, table[name]) for name in PART_ORDER), joint_count=J)


def pad_repeat(seq, target_T=256):
    """Cyclically repeat frames up to target_T; longer sequences are truncated."""
    if target_T < 1:
        raise ConfigError("target frame count must be >= 1")
    t = seq.T
    if t == target_T:
        return seq
    idx = np.arange(target_T) % t
    return SkeletonSequence(seq.coords[idx], person_index=seq.person_index)


def pad_sample(sample, target_T=256):
    return InteractionSample(pad_repeat(sample.person_a, target_T),
                             pad_repeat(sample.person_b, target_T),
                             label=sample.label, source_id=sample.source_id)


def add_joint_noise(seq, sigma_m, rng_seed=0):
    """Add i.i.d. zero-mean Gaussian noise of std sigma_m to every coordinate."""
    if sigma_m < 0:
        raise ConfigError("noise sigma must be >= 0")
    if sigma_m == 0:
        return seq
    rng = np.random.default_rng(rng_seed)
    noisy = seq.coords + rng.normal(scale=sigma_m, size=seq.coords.shape)
    return SkeletonSequence(noisy, person_index=seq.person_index)


# -- NTU .skeleton text layout ------------------------------------------------

NTU_JOINTS = 25
# A joint line: x, y, z and nine more whitespace-separated fields. loadtxt
# rejects a line with any other field count; the nine are stored in zero
# bytes each, so the "xyz" field of a parsed table is a plain (n, 3) array.
_JOINT_LINE = np.dtype([("xyz", "<f8", (3,))] + [("", "S0")] * 9)


class _Rows:
    """The non-blank lines of a text file, with their 1-based line numbers."""

    def __init__(self, data):
        if isinstance(data, bytes):
            data = decode_utf8(data, "skeleton file")
        self._lines = data.splitlines()
        self.rows = list(filter(str.strip, self._lines))

    def at(self, row, what):
        """Row `row`; ParseError when the file ends before it."""
        if row >= len(self.rows):
            raise ParseError(f"unexpected end of file while reading {what}",
                             line=len(self._lines))
        return self.rows[row]

    def error(self, message, row):
        """ParseError naming the line that holds row `row`."""
        if len(self.rows) == len(self._lines):
            return ParseError(message, line=row + 1)
        numbers = [n for n, line in enumerate(self._lines, 1) if line.strip()]
        return ParseError(message, line=numbers[row])

    def integer(self, row, what):
        line = self.at(row, what)
        try:
            return int(line.split()[0])
        except ValueError:
            raise self.error(f"expected integer {what}, got {line.strip()!r}", row) from None


def _joint_blocks(rows, blocks):
    """Walk the header lines only, appending (frame, body id, first joint
    row) of each body to `blocks`; returns the frame count. A body's joint
    lines are the 25 rows after its joint-count line."""
    frame_count = rows.integer(0, "frame count")
    if frame_count < 1:
        raise rows.error(f"frame count must be >= 1, got {frame_count}", 0)
    r = 1
    for f in range(frame_count):
        body_count = rows.integer(r, "body count")
        r += 1
        for _ in range(body_count):
            meta = rows.at(r, "body metadata").split()
            if len(meta) != 10:
                raise rows.error(f"body metadata needs 10 values, got {len(meta)}", r)
            joint_count = rows.integer(r + 1, "joint count")
            if joint_count != NTU_JOINTS:
                raise rows.error(f"joint count must be 25, got {joint_count}", r + 1)
            r += 2
            blocks.append((f, meta[0], r))
            r += NTU_JOINTS
            rows.at(r - 1, "joint line")
    return frame_count


def _joint_xyz(rows, blocks):
    """(number of joint rows, 3) x/y/z of the blocks' joint rows that the file
    holds, in one C-level pass that also checks every row's field count.
    When that pass rejects a row or yields a non-finite coordinate, the rows
    are read again one token at a time with `float()`, which names the first
    bad line, or converts what `float()` accepts and loadtxt does not
    (digit-group underscores, non-ASCII digits)."""
    starts = [r for _, _, r in blocks]
    lines = list(chain.from_iterable(rows.rows[r:r + NTU_JOINTS] for r in starts))
    if not lines:
        return np.empty((0, 3))
    try:
        table = np.loadtxt(lines, dtype=_JOINT_LINE, comments=None, ndmin=1)
    except ValueError:
        pass
    else:
        if np.isfinite(table["xyz"]).all():
            return table["xyz"]
    xyz = []
    for start in starts:
        for r, line in enumerate(rows.rows[start:start + NTU_JOINTS], start):
            vals = line.split()
            if len(vals) != 12:
                raise rows.error(f"joint line needs 12 values, got {len(vals)}", r)
            try:
                xyz.append([float(v) for v in vals[:3]])
            except ValueError as exc:
                raise rows.error(f"non-numeric coordinate: {exc}", r) from None
            if not all(map(math.isfinite, xyz[-1])):
                raise rows.error(f"non-finite coordinate in {' '.join(vals[:3])}", r)
    return np.array(xyz)


def parse_ntu(data):
    """Parse an NTU `.skeleton` file into per-body sequences.

    Layout: frame count; per frame a body count; per body one 10-value
    metadata line (first value is the body ID), a joint-count line that
    must read 25, and 25 joint lines whose first three values are x, y, z
    in meters. Blank lines are skipped anywhere. Returns (list of
    SkeletonSequence, frame_count); bodies absent from a frame keep zero
    coordinates there. When more than two bodies appear, the two with the
    longest presence are kept (ties break toward the smaller body ID).

    Every joint line is checked and converted, dropped bodies' included;
    nan and inf coordinates are rejected. A ParseError names the first bad
    line of the file.
    """
    rows = _Rows(data)
    blocks = []
    try:
        frame_count = _joint_blocks(rows, blocks)
    except ParseError:
        _joint_xyz(rows, blocks)  # joint lines before a bad header line come first
        raise
    if not blocks:
        raise ParseError("file contains no bodies")
    xyz = _joint_xyz(rows, blocks).reshape(len(blocks), NTU_JOINTS, 3)
    presence = Counter(body_id for _, body_id, _ in blocks)  # in first-seen order
    ranked = sorted(presence, key=lambda b: (-presence[b], b))[:2]
    ranked.sort(key=list(presence).index)
    bodies = []
    for i, body_id in enumerate(ranked):
        # frame -> block; a body listed twice in one frame keeps its later joints
        last = {f: n for n, (f, b, _) in enumerate(blocks) if b == body_id}
        coords = np.zeros((frame_count, NTU_JOINTS, 3))
        coords[list(last)] = xyz[list(last.values())]
        bodies.append(SkeletonSequence(coords, person_index=i))
    return bodies, frame_count


def ntu_to_sample(bodies, label, source_id=""):
    """Pair up parsed NTU bodies; a lone body is duplicated with a warning."""
    if not bodies:
        raise ConfigError("no bodies to build a sample from")
    if len(bodies) == 1:
        log.warning("sample %s has a single body; duplicating it as person B", source_id)
        a = bodies[0]
        b = SkeletonSequence(a.coords.copy(), person_index=1)
        return InteractionSample(a, b, label=label, source_id=source_id)
    return InteractionSample(bodies[0], bodies[1], label=label, source_id=source_id)


# -- SBU rows -----------------------------------------------------------------

def parse_sbu(data, label=0, source_id=""):
    """Parse SBU rows: frame index then 90 values (2 persons x 15 joints x 3).

    Fields may be separated by commas and/or whitespace; every row must
    carry exactly 91 fields of finite numbers. Coordinates stay in the
    file's normalized units.
    """
    if isinstance(data, bytes):
        data = decode_utf8(data, "SBU file")
    rows = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != 91:
            raise ParseError(f"row has {len(fields)} fields, expected 91", line=lineno)
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError as exc:
            raise ParseError(f"non-numeric value: {exc}", line=lineno) from None
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError("non-finite value", line=lineno)
    if not rows:
        raise ParseError("file contains no skeleton rows")
    data = np.asarray(rows).reshape(len(rows), 2, 15, 3)
    return InteractionSample(SkeletonSequence(data[:, 0], person_index=0),
                             SkeletonSequence(data[:, 1], person_index=1),
                             label=label, source_id=source_id)


# -- canonical interchange format ----------------------------------------------

def write_canonical(sample):
    """Serialize an InteractionSample to canonical bytes."""
    sid = sample.source_id.encode("utf-8")
    buf = io.BytesIO()
    buf.write(CANONICAL_MAGIC)
    buf.write(struct.pack("<IIiI", sample.person_a.J, sample.person_a.T,
                          sample.label, len(sid)))
    buf.write(sid)
    buf.write(sample.person_a.coords.astype("<f8").tobytes())
    buf.write(sample.person_b.coords.astype("<f8").tobytes())
    return buf.getvalue()


def read_canonical(fh):
    """Parse canonical bytes from the binary file object `fh` back into an
    InteractionSample (bit-exact coords); ParseError for any other layout."""
    r = Reader(fh, CANONICAL_MAGIC)
    j, t, label, sid_len = r.unpack("<IIiI", "sample header")
    source_id = r.text(sid_len, "source id")
    a, b = r.array((2, t, j, 3), "<f8", "coordinates")
    r.end("sample")
    return InteractionSample(SkeletonSequence(a, person_index=0),
                             SkeletonSequence(b, person_index=1),
                             label=label, source_id=source_id)
