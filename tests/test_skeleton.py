"""Skeleton ingestion: parser fixtures, padding, part maps, noise, canonical IO."""

import io

import numpy as np
import pytest

from igformer import skeleton as sk
from igformer.errors import ConfigError, ParseError


def ntu_fixture(frames):
    """Build NTU `.skeleton` text from {body_id: {frame: joints(25,3)}}."""
    out = [str(len(frames))]
    for f, bodies in enumerate(frames):
        out.append(str(len(bodies)))
        for body_id, joints in bodies.items():
            out.append(" ".join([str(body_id)] + ["0"] * 9))
            out.append("25")
            for j in range(25):
                xyz = joints[j]
                out.append(" ".join(f"{v:.6f}" for v in xyz) + " " + " ".join(["0"] * 9))
    return "\n".join(out) + "\n"


def body_joints(value):
    joints = np.zeros((25, 3))
    joints[:] = value
    return joints


class TestParseNtu:
    def test_two_body_fixture(self):
        joints0 = body_joints(0.0)
        joints0[0] = [0.1, 0.2, 0.3]
        text = ntu_fixture([{1: joints0, 2: body_joints(1.0)}])
        bodies, frame_count = sk.parse_ntu(text)
        assert frame_count == 1
        assert len(bodies) == 2
        assert np.allclose(bodies[0].coords[0, 0], [0.1, 0.2, 0.3])
        assert np.allclose(bodies[1].coords[0, 0], [1.0, 1.0, 1.0])

    def test_zero_frames_rejected(self):
        with pytest.raises(ParseError):
            sk.parse_ntu("0\n")

    def test_presence_rule_drops_transient_body(self):
        a, b, c = body_joints(1.0), body_joints(2.0), body_joints(3.0)
        frames = [{1: a, 2: b}, {1: a, 2: b, 3: c}, {1: a, 2: b}, {1: a, 2: b}]
        bodies, _ = sk.parse_ntu(ntu_fixture(frames))
        assert len(bodies) == 2
        assert np.allclose(bodies[0].coords[0, 0], [1.0, 1.0, 1.0])
        assert np.allclose(bodies[1].coords[0, 0], [2.0, 2.0, 2.0])

    def test_body_listed_twice_in_a_frame_keeps_later_joints(self):
        lines = ntu_fixture([{1: body_joints(1.0), 2: body_joints(2.0)}]).split("\n")
        lines[1] = "3"
        lines[56:56] = lines[2:29]
        lines[58:83] = [line.replace("1.000000", "5.000000") for line in lines[58:83]]
        bodies, _ = sk.parse_ntu("\n".join(lines))
        assert np.array_equal(bodies[0].coords, np.full((1, 25, 3), 5.0))
        assert np.array_equal(bodies[1].coords, np.full((1, 25, 3), 2.0))

    def test_absent_frames_zero_filled(self):
        frames = [{1: body_joints(1.0)}, {1: body_joints(1.0), 2: body_joints(2.0)}]
        bodies, _ = sk.parse_ntu(ntu_fixture(frames))
        assert np.allclose(bodies[1].coords[0], 0.0)
        assert np.allclose(bodies[1].coords[1, 0], [2.0, 2.0, 2.0])

    def test_wrong_joint_count_names_line(self):
        text = "1\n1\n" + " ".join(["7"] * 10) + "\n24\n"
        with pytest.raises(ParseError, match="line"):
            sk.parse_ntu(text)

    def test_non_numeric_token(self):
        joints = body_joints(0.0)
        text = ntu_fixture([{1: joints}]).replace("0.000000", "zero", 1)
        with pytest.raises(ParseError):
            sk.parse_ntu(text)

    def test_file_ending_after_a_joint_count(self):
        text = "1\n1\n" + " ".join(["7"] * 10) + "\n25\n"
        with pytest.raises(ParseError, match="^line 4: unexpected end of file while reading joint line"):
            sk.parse_ntu(text)

    def test_truncated_file(self):
        joints = body_joints(0.0)
        text = "\n".join(ntu_fixture([{1: joints}]).splitlines()[:-5])
        with pytest.raises(ParseError):
            sk.parse_ntu(text)

    def three_body_text(self):
        """Three frames; body 3 (all joints at 3.0) appears in the middle one
        only, so it is dropped. Returns (text lines, line number of body 3's
        first joint line)."""
        a, b, c = body_joints(1.0), body_joints(2.0), body_joints(3.0)
        lines = ntu_fixture([{1: a, 2: b}, {1: a, 2: b, 3: c}, {1: a, 2: b}]).split("\n")
        return lines, 1 + next(n for n, line in enumerate(lines) if line.startswith("3.0"))

    def test_short_joint_line_names_its_line(self):
        lines, first = self.three_body_text()
        lines[first + 4 - 1] = lines[first + 4 - 1].rsplit(" ", 1)[0]
        with pytest.raises(ParseError, match=f"^line {first + 4}: joint line needs 12 values, got 11$"):
            sk.parse_ntu("\n".join(lines))

    def test_non_numeric_x_in_dropped_body_names_its_line(self):
        lines, first = self.three_body_text()
        lines[first + 2 - 1] = lines[first + 2 - 1].replace("3.000000", "x3.0", 1)
        with pytest.raises(ParseError, match=f"^line {first + 2}: non-numeric coordinate"):
            sk.parse_ntu("\n".join(lines))

    def test_nan_in_kept_body_names_its_line(self):
        lines, first = self.three_body_text()
        assert lines[4].startswith("1.000000")  # body 1's first joint line
        lines[4] = lines[4].replace("1.000000", "nan", 1)
        lines[first + 2 - 1] = lines[first + 2 - 1].replace("3.000000", "inf", 1)
        with pytest.raises(ParseError, match="^line 5: non-finite coordinate in nan 1.0"):
            sk.parse_ntu("\n".join(lines))

    def test_inf_in_dropped_body_names_its_line(self):
        lines, first = self.three_body_text()
        lines[first + 2 - 1] = lines[first + 2 - 1].replace("3.000000", "-inf", 1)
        with pytest.raises(ParseError, match=f"^line {first + 2}: non-finite coordinate"):
            sk.parse_ntu("\n".join(lines))

    def test_value_starting_with_hash_names_its_line(self):
        lines, first = self.three_body_text()
        lines[first - 10] = "#" + lines[first - 10]
        with pytest.raises(ParseError, match=f"^line {first - 9}: non-numeric coordinate"):
            sk.parse_ntu("\n".join(lines))

    def test_first_bad_line_wins_over_a_later_header_error(self):
        lines, first = self.three_body_text()
        lines[first + 1] += " 9"
        assert lines[first + 24] == "2"  # the last frame's body count
        lines[first + 24] = "zz"
        with pytest.raises(ParseError, match=f"^line {first + 2}: joint line needs 12"):
            sk.parse_ntu("\n".join(lines))

    def test_blank_lines_inside_a_joint_block(self):
        lines, first = self.three_body_text()
        want, _ = sk.parse_ntu("\n".join(lines))
        spaced = lines[:first + 5] + ["", "  \t"] + lines[first + 5:]
        got, _ = sk.parse_ntu("\n".join(spaced))
        assert [g.coords.tobytes() for g in got] == [w.coords.tobytes() for w in want]
        # line numbers after the blank lines still count them
        spaced[first + 9] += " 9"
        with pytest.raises(ParseError, match=f"^line {first + 10}: joint line needs 12"):
            sk.parse_ntu("\n".join(spaced))

    def test_coordinates_bit_identical_to_float(self):
        rng = np.random.default_rng(21)
        formats = (repr, "{:.6f}".format, "{:.3e}".format, "{:.17g}".format, "{:+.0E}".format)
        frames = 7
        tokens = rng.normal(scale=rng.choice([1e-5, 1.0, 1e3], size=(frames, 2, 25, 3)))
        tokens = np.vectorize(lambda v, i: formats[i](v), otypes=[object])(
            tokens, rng.integers(len(formats), size=tokens.shape))
        out = [str(frames)]
        for f in range(frames):
            out.append("2")
            for body in range(2):
                out += [f"{body + 7} 0 1 1 1 1 0 0.01 -0.02 2", "25"]
                out += [" ".join(xyz) + " 0.5 0.5 960.0 540.0 0.9 0.0 0.4 0.0 2"
                        for xyz in tokens[f, body]]
        bodies, _ = sk.parse_ntu("\n".join(out) + "\n")
        want = np.vectorize(float, otypes=[np.float64])(tokens)
        for body in range(2):
            assert bodies[body].coords.tobytes() == want[:, body].tobytes()

    def test_single_body_duplicated_with_warning(self, caplog):
        bodies, _ = sk.parse_ntu(ntu_fixture([{1: body_joints(0.5)}]))
        with caplog.at_level("WARNING", logger="igformer"):
            sample = sk.ntu_to_sample(bodies, label=3, source_id="solo")
        assert "duplicating" in caplog.text
        assert np.array_equal(sample.person_a.coords, sample.person_b.coords)


class TestParseSbu:
    def sbu_row(self, frame, values):
        return ",".join([str(frame)] + [f"{v:.6f}" for v in values])

    def test_single_row(self):
        values = np.zeros(90)
        values[0:3] = [0.5, 0.5, 1.0]
        sample = sk.parse_sbu(self.sbu_row(1, values))
        assert sample.person_a.T == 1
        assert sample.person_a.J == 15
        assert np.allclose(sample.person_a.coords[0, 0], [0.5, 0.5, 1.0])

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            sk.parse_sbu("")

    def test_row_count_is_frame_count(self):
        rows = "\n".join(self.sbu_row(i + 1, np.full(90, 0.25)) for i in range(2))
        sample = sk.parse_sbu(rows)
        assert sample.person_a.T == 2

    def test_non_finite_value_names_its_row(self):
        values = np.full(90, 0.25)
        rows = [self.sbu_row(1, values), self.sbu_row(2, values).replace("0.250000", "nan", 1)]
        with pytest.raises(ParseError, match="^line 2: non-finite value"):
            sk.parse_sbu("\n".join(rows))

    def test_short_row_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            sk.parse_sbu("1,0.5,0.5")


class TestPadRepeat:
    def seq(self, values):
        coords = np.zeros((len(values), 2, 3))
        coords[:, 0, 0] = values
        return sk.SkeletonSequence(coords)

    def test_cyclic_repetition(self):
        out = sk.pad_repeat(self.seq([1, 2, 3]), 7)
        assert np.array_equal(out.coords[:, 0, 0], [1, 2, 3, 1, 2, 3, 1])

    def test_identity_when_equal(self):
        s = self.seq([1, 2, 3])
        assert sk.pad_repeat(s, 3) is s

    def test_default_target_is_256(self):
        assert sk.pad_repeat(self.seq([1.0])).T == 256

    def test_truncation(self):
        out = sk.pad_repeat(self.seq([1, 2, 3, 4]), 2)
        assert np.array_equal(out.coords[:, 0, 0], [1, 2])

    def test_values_never_change(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(5, 3, 3))
        out = sk.pad_repeat(sk.SkeletonSequence(coords), 12)
        for t in range(12):
            assert np.array_equal(out.coords[t], coords[t % 5])

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            sk.pad_repeat(self.seq([1.0]), 0)


class TestPartMaps:
    def test_j25_partition(self):
        m = sk.builtin_part_map(25)
        sizes = {name: len(idx) for name, idx in m.parts}
        assert sizes == {"left_arm": 6, "right_arm": 6, "left_leg": 4,
                         "right_leg": 4, "torso": 5}
        union = sorted(i for _, idx in m.parts for i in idx)
        assert union == list(range(25))

    def test_j15_partition(self):
        m = sk.builtin_part_map(15)
        assert m.B == 5
        assert all(len(idx) == 3 for _, idx in m.parts)
        union = sorted(i for _, idx in m.parts for i in idx)
        assert union == list(range(15))

    def test_part_order_fixed(self):
        m = sk.builtin_part_map(15)
        assert tuple(name for name, _ in m.parts) == sk.PART_ORDER

    def test_unsupported_j(self):
        with pytest.raises(ConfigError):
            sk.builtin_part_map(17)

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            sk.BodyPartMap((("left_arm", (0, 1)), ("right_arm", (1, 2)),
                            ("left_leg", (3,)), ("right_leg", (4,)), ("torso", (5,))),
                           joint_count=6)

    def test_gap_rejected(self):
        with pytest.raises(ConfigError):
            sk.BodyPartMap((("left_arm", (0,)), ("right_arm", (2,))), joint_count=3)

class TestJointNoise:
    def seq(self):
        rng = np.random.default_rng(7)
        return sk.SkeletonSequence(rng.normal(size=(40, 15, 3)))

    def test_zero_sigma_identity(self):
        s = self.seq()
        assert sk.add_joint_noise(s, 0.0, rng_seed=1) is s

    def test_deterministic(self):
        s = self.seq()
        a = sk.add_joint_noise(s, 0.01, rng_seed=42)
        b = sk.add_joint_noise(s, 0.01, rng_seed=42)
        assert np.array_equal(a.coords, b.coords)

    def test_sample_std_matches_sigma(self):
        coords = np.zeros((250, 15, 3))  # > 1e5 coordinates
        s = sk.SkeletonSequence(coords)
        noisy = sk.add_joint_noise(s, 0.01, rng_seed=3)
        std = (noisy.coords - coords).std()
        assert abs(std - 0.01) / 0.01 < 0.05

    def test_negative_sigma(self):
        with pytest.raises(ConfigError):
            sk.add_joint_noise(self.seq(), -0.1)


class TestCanonicalFormat:
    def sample(self):
        rng = np.random.default_rng(11)
        a = sk.SkeletonSequence(rng.normal(size=(6, 15, 3)), person_index=0)
        b = sk.SkeletonSequence(rng.normal(size=(6, 15, 3)), person_index=1)
        return sk.InteractionSample(a, b, label=2, source_id="fixture-01")

    def test_round_trip_bit_exact(self):
        s = self.sample()
        out = sk.read_canonical(io.BytesIO(sk.write_canonical(s)))
        assert np.array_equal(out.person_a.coords, s.person_a.coords)
        assert np.array_equal(out.person_b.coords, s.person_b.coords)
        assert out.label == s.label
        assert out.source_id == s.source_id

    def test_double_round_trip(self):
        blob = sk.write_canonical(self.sample())
        assert sk.write_canonical(sk.read_canonical(io.BytesIO(blob))) == blob

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            sk.read_canonical(io.BytesIO(b"NOPE" + b"\x00" * 64))

    def test_truncated_payload(self):
        blob = sk.write_canonical(self.sample())
        with pytest.raises(ParseError):
            sk.read_canonical(io.BytesIO(blob[:-8]))


def test_mismatched_persons_rejected():
    a = sk.SkeletonSequence(np.zeros((4, 15, 3)))
    b = sk.SkeletonSequence(np.zeros((5, 15, 3)))
    with pytest.raises(ConfigError):
        sk.InteractionSample(a, b, label=0)
