"""Malformed inputs exit 1 through the CLI: truncated or bit-flipped binary
files (.igf, .igfd, .igfc), undecodable text, and file names without a label."""

import logging
import shutil
import struct
import sys
from pathlib import Path

import pytest

from igformer import cli, config as cfgmod, model as M, skeleton as skel
from igformer.errors import ParseError
from igformer.skeleton import builtin_part_map

sys.path.insert(0, str(Path(__file__).parent))
from conftest import TINY_CONFIG  # noqa: E402
from test_skeleton import body_joints, ntu_fixture  # noqa: E402


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """One prepared synthetic sample and a checkpoint that evaluates it."""
    root = tmp_path_factory.mktemp("corrupt")
    cfg_path = root / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG)
    data = root / "data"
    assert cli.main(["prepare", "--format", "synth", "--count", "1", "--classes", "1",
                     "--frames", "16", "--config", str(cfg_path), "--out", str(data)]) == 0
    cfg = cfgmod.load_config(cfg_path)
    model = M.init_params(cfg.model, seed=0, part_map=builtin_part_map(15))
    (root / "model.igfc").write_bytes(M.save_checkpoint(model, cfgmod.architecture_digest(cfg)))
    return root


class Evaluator:
    """Runs `eval` on a private copy of the prepared files, with one file replaced."""

    def __init__(self, prepared, tmp_path, target):
        self.dir = tmp_path / "case"
        shutil.copytree(prepared, self.dir)
        self.cfg = self.dir / "tiny.ini"
        self.path = self.dir / target
        self.good = self.path.read_bytes()

    def exit_code(self, blob):
        self.path.write_bytes(blob)
        return cli.main(["eval", "--data", str(self.dir / "data"), "--checkpoint",
                         str(self.dir / "model.igfc"), "--config", str(self.cfg),
                         "--out", str(self.dir / "eval")])


def flip_bits(blob, offset, size):
    """Every single-bit flip within blob[offset:offset + size]."""
    for byte in range(offset, offset + size):
        for bit in range(8):
            bad = bytearray(blob)
            bad[byte] ^= 1 << bit
            yield bytes(bad)


def checkpoint_layout(blob):
    """(offset of the first parameter's float data, offsets and sizes of the
    length fields before it)."""
    (dlen,) = struct.unpack_from("<I", blob, 4)
    count_at = 8 + dlen
    nlen_at = count_at + 4
    (nlen,) = struct.unpack_from("<I", blob, nlen_at)
    rank_at = nlen_at + 4 + nlen
    (rank,) = struct.unpack_from("<I", blob, rank_at)
    first = rank_at + 4 + 4 * rank
    fields = [(4, 4), (count_at, 4), (nlen_at, 4), (rank_at, 4), (rank_at + 4, 4 * rank)]
    return first, fields


def layouts(evaluator, kind):
    """(first payload byte, [(offset, size) of each length field]) of a file."""
    blob = evaluator.good
    if kind == "igf":
        (sid_len,) = struct.unpack_from("<I", blob, 16)
        return 20 + sid_len, [(4, 8), (16, 4)]
    if kind == "igfd":
        return 12, [(4, 4)]
    return checkpoint_layout(blob)


TARGETS = {"igf": "data/sample_00000.igf", "igfd": "data/sample_00000.igfd",
           "igfc": "model.igfc"}


@pytest.mark.parametrize("kind", sorted(TARGETS))
class TestBinaryInputs:
    def test_intact_file_evaluates(self, prepared, tmp_path, kind):
        ev = Evaluator(prepared, tmp_path, TARGETS[kind])
        assert ev.exit_code(ev.good) == 0

    def test_cut_anywhere_in_header(self, prepared, tmp_path, kind):
        ev = Evaluator(prepared, tmp_path, TARGETS[kind])
        first, _ = layouts(ev, kind)
        codes = {cut: ev.exit_code(ev.good[:cut]) for cut in range(first + 1)}
        assert codes == {cut: 1 for cut in codes}

    def test_cut_inside_payload(self, prepared, tmp_path, kind):
        ev = Evaluator(prepared, tmp_path, TARGETS[kind])
        first, _ = layouts(ev, kind)
        n = len(ev.good)
        cuts = sorted({first + 1, first + 7, first + 8, (first + n) // 2, n - 1})
        codes = {cut: ev.exit_code(ev.good[:cut]) for cut in cuts}
        assert codes == {cut: 1 for cut in codes}

    def test_bit_flips_in_magic_and_lengths(self, prepared, tmp_path, kind):
        ev = Evaluator(prepared, tmp_path, TARGETS[kind])
        _, fields = layouts(ev, kind)
        codes = [ev.exit_code(bad) for offset, size in [(0, 4)] + fields
                 for bad in flip_bits(ev.good, offset, size)]
        assert codes == [1] * len(codes)


# -- text inputs ------------------------------------------------------------

def ntu_text(shift=0.0):
    return ntu_fixture([{1: body_joints(shift), 2: body_joints(1.0 + shift)}] * 2)


class TestUndecodableText:
    def test_parse_ntu_raises_parse_error(self):
        data = ntu_text().encode("utf-8").replace(b"2\n", b"2\xff\n", 1)
        with pytest.raises(ParseError, match="not valid UTF-8"):
            skel.parse_ntu(data)

    def test_parse_sbu_raises_parse_error(self):
        row = "1," + ",".join(["0.5"] * 90)
        with pytest.raises(ParseError, match="not valid UTF-8"):
            skel.parse_sbu(row.encode("utf-8") + b"\xc3\x28")

    def test_prepare_skips_undecodable_file(self, tmp_path, cfg_path, caplog):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "S001C001P001R001A001.skeleton").write_bytes(b"\xff\xfe" + b"1\n" * 8)
        (raw / "S001C001P001R001A002.skeleton").write_text(ntu_text())
        (raw / "S001C001P001R001A003.skeleton").write_text(ntu_text(0.5))
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="igformer"):
            code = cli.main(["prepare", "--format", "ntu", "--input", str(raw),
                             "--config", cfg_path, "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.glob("*.igf")) == [
            "S001C001P001R001A002.igf", "S001C001P001R001A003.igf"]
        assert "A001.skeleton" in caplog.text and "not valid UTF-8" in caplog.text


class TestUnparseableLabels:
    @pytest.mark.parametrize("name", ["unknown.skeleton", "S001C001P001R001.skeleton",
                                      "S001C001P001R001A000.skeleton"])
    def test_ntu_name_without_action_field(self, name):
        with pytest.raises(ParseError, match="action field"):
            cli._infer_label(Path("/data/ntu") / name, "ntu", Path("/data/ntu"))

    def test_ntu_action_field(self):
        assert cli._infer_label(Path("S001C001P001R001A060.skeleton"), "ntu", Path(".")) == 59

    @pytest.mark.parametrize("where", ["s01s02/001/skeleton_pos.txt",
                                       "s01s02/09/001/skeleton_pos.txt",
                                       "s01s02/1/001/skeleton_pos.txt"])
    def test_sbu_file_outside_class_directory(self, where):
        with pytest.raises(ParseError, match="class directory"):
            cli._infer_label(Path("/data/sbu") / where, "sbu", Path("/data/sbu"))

    def test_sbu_class_directory(self):
        path = Path("/data/sbu/s01s02/08/001/skeleton_pos.txt")
        assert cli._infer_label(path, "sbu", Path("/data/sbu")) == 7

    def test_sbu_class_directory_above_input_ignored(self):
        path = Path("/archive/05/sbu/s01s02/unsorted/skeleton_pos.txt")
        with pytest.raises(ParseError, match="class directory"):
            cli._infer_label(path, "sbu", Path("/archive/05/sbu"))

    def test_prepare_skips_file_labeled_only_above_input(self, tmp_path, cfg_path, caplog):
        rows = "\n".join("%d,%s" % (f + 1, ",".join(["0.5"] * 90)) for f in range(4))
        root = tmp_path / "archive" / "05" / "sbu"
        (root / "s01s02" / "unsorted").mkdir(parents=True)
        (root / "s01s02" / "unsorted" / "skeleton_pos.txt").write_text(rows)
        with caplog.at_level(logging.WARNING, logger="igformer"):
            assert cli.main(["prepare", "--format", "sbu", "--input", str(root),
                             "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        assert "skipping" in caplog.text and "no class directory" in caplog.text
        assert not list((tmp_path / "out").glob("*.igf"))

    def test_prepare_skips_unlabeled_files(self, tmp_path, cfg_path, caplog):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "S001C001P001R001A002.skeleton").write_text(ntu_text())
        (raw / "unlabeled.skeleton").write_text(ntu_text(0.5))
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="igformer"):
            assert cli.main(["prepare", "--format", "ntu", "--input", str(raw),
                             "--config", cfg_path, "--out", str(out)]) == 0
        assert [p.name for p in out.glob("*.igf")] == ["S001C001P001R001A002.igf"]
        assert "unlabeled.skeleton" in caplog.text

    def test_prepare_with_only_unlabeled_files_exits_one(self, tmp_path, cfg_path):
        rows = "\n".join("%d,%s" % (f + 1, ",".join(["0.5"] * 90)) for f in range(4))
        (tmp_path / "raw" / "s01s02" / "001").mkdir(parents=True)
        (tmp_path / "raw" / "s01s02" / "001" / "skeleton_pos.txt").write_text(rows)
        assert cli.main(["prepare", "--format", "sbu", "--input", str(tmp_path / "raw"),
                         "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
