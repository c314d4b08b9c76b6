"""CLI: exit codes, manifests, prepare/train/eval/inspect-graph round trips."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_CONFIG
from igformer import attention
from igformer.cli import _command_line, build_parser, main
from igformer.skeleton import read_canonical


def run(*argv):
    return main(list(argv))


def read_sample(path):
    with open(path, "rb") as fh:
        return read_canonical(fh)


def prepare_tiny(tmp_path, cfg_path, count=8, out_name="data"):
    out = tmp_path / out_name
    code = run("prepare", "--format", "synth", "--count", str(count),
               "--frames", "16", "--config", cfg_path, "--out", str(out),
               "--seed", "1")
    assert code == 0
    return out


class TestPrepare:
    def test_synth_balanced_outputs(self, tmp_path, cfg_path, capsys):
        out = prepare_tiny(tmp_path, cfg_path, count=8)
        assert len(list(out.glob("*.igf"))) == 8
        assert len(list(out.glob("*.igfd"))) == 8
        assert (out / "manifest.json").exists()
        assert "prepared 8 samples" in capsys.readouterr().out
        labels = [read_sample(p).label for p in sorted(out.glob("*.igf"))]
        assert sorted(labels) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_missing_input_dir_is_user_error(self, tmp_path, cfg_path):
        code = run("prepare", "--format", "ntu", "--input", str(tmp_path / "nope"),
                   "--config", cfg_path, "--out", str(tmp_path / "o"))
        assert code == 1

    def test_empty_input_dir_nonzero(self, tmp_path, cfg_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run("prepare", "--format", "sbu", "--input", str(empty),
                   "--config", cfg_path, "--out", str(tmp_path / "o"))
        assert code == 1

    def test_ntu_fixture_dir(self, tmp_path, cfg_path):
        import sys
        sys.path.insert(0, str(Path(__file__).parent))
        from test_skeleton import body_joints, ntu_fixture
        src = tmp_path / "raw"
        src.mkdir()
        for i in range(2):
            text = ntu_fixture([{1: body_joints(0.1 * i), 2: body_joints(1.0)}] * 2)
            (src / f"S001C001P001R001A{50 + i:03d}.skeleton").write_text(text)
        out = tmp_path / "ntu_out"
        code = run("prepare", "--format", "ntu", "--input", str(src),
                   "--config", cfg_path, "--out", str(out))
        assert code == 0
        assert len(list(out.glob("*.igf"))) == 2
        labels = {read_sample(p).label for p in out.glob("*.igf")}
        assert labels == {49, 50}  # parsed from the Axxx filename field

    def test_sbu_files_of_one_name_stay_apart(self, tmp_path, cfg_path):
        raw = tmp_path / "raw"
        for c in range(3):
            rows = "\n".join("%d,%s" % (f + 1, ",".join([str(0.1 * c)] * 90)) for f in range(4))
            (raw / "s01s02" / f"{c + 1:02d}" / "001").mkdir(parents=True)
            (raw / "s01s02" / f"{c + 1:02d}" / "001" / "skeleton_pos.txt").write_text(rows)
        out = tmp_path / "out"
        assert run("prepare", "--format", "sbu", "--input", str(raw),
                   "--config", cfg_path, "--out", str(out)) == 0
        written = {p.name: read_sample(p) for p in sorted(out.glob("*.igf"))}
        assert {name: s.label for name, s in written.items()} == {
            f"s01s02_{c + 1:02d}_001_skeleton_pos.igf": c for c in range(3)}
        assert [s.source_id for s in written.values()] == [
            f"s01s02_{c + 1:02d}_001_skeleton_pos" for c in range(3)]
        assert len(list(out.glob("*.igfd"))) == 3

    def test_inputs_of_one_output_name_do_not_overwrite(self, tmp_path, cfg_path, caplog):
        import sys
        sys.path.insert(0, str(Path(__file__).parent))
        from test_skeleton import body_joints, ntu_fixture
        text = ntu_fixture([{1: body_joints(0.1), 2: body_joints(1.0)}] * 2)
        raw = tmp_path / "raw"
        for where in ("a_b/S001C001P001R001A001.skeleton", "a/b_S001C001P001R001A001.skeleton"):
            (raw / where).parent.mkdir(parents=True, exist_ok=True)
            (raw / where).write_text(text)
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="igformer"):
            assert run("prepare", "--format", "ntu", "--input", str(raw),
                       "--config", cfg_path, "--out", str(out)) == 0
        assert [p.name for p in out.glob("*.igf")] == ["a_b_S001C001P001R001A001.igf"]
        assert "is taken by an earlier input" in caplog.text

    def test_k_outside_token_count_leaves_out_empty(self, tmp_path):
        # the default geometry has M = 125 tokens per person
        for k in ("0", "126"):
            out = tmp_path / f"k{k}"
            assert run("prepare", "--format", "synth", "--count", "4", "--k", k,
                       "--out", str(out)) == 1
            assert not out.exists()

    def test_bad_flag_exits_one(self):
        assert run("prepare", "--format", "bogus", "--out", "/tmp/x") == 1

    def test_replay_from_manifest(self, tmp_path, cfg_path):
        first = tmp_path / "first"
        assert run("prepare", "--format", "synth", "--count", "6", "--classes", "3",
                   "--frames", "16", "--amplitude", "0.5", "--gen-noise", "0.02",
                   "--config", cfg_path, "--out", str(first), "--seed", "4") == 0
        replay = tmp_path / "replay"
        assert run("prepare", "--format", "synth", "--from-manifest",
                   str(first / "manifest.json"), "--out", str(replay)) == 0
        names = sorted(p.name for p in first.glob("*.igf*"))
        assert len(names) == 12
        assert sorted(p.name for p in replay.glob("*.igf*")) == names
        for name in names:
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name

    def test_explicit_flags_beat_recorded_values(self, tmp_path, cfg_path):
        first = tmp_path / "first"
        assert run("prepare", "--format", "synth", "--count", "6", "--classes", "3",
                   "--frames", "16", "--config", cfg_path, "--out", str(first),
                   "--seed", "4") == 0
        recorded = json.loads((first / "manifest.json").read_text())["argv"]
        assert recorded[0] == "prepare" and "--amplitude=1.0" in recorded  # a default
        replay = tmp_path / "replay"
        assert run("prepare", "--format", "synth", "--count", "2", "--from-manifest",
                   str(first / "manifest.json"), "--out", str(replay)) == 0
        # --count 2 beats the recorded 6; the recorded --classes 3 beats the default 4
        argv = json.loads((replay / "manifest.json").read_text())["argv"]
        assert "--count=2" in argv and "--classes=3" in argv
        assert not any(a.startswith("--from-manifest") for a in argv)
        names = sorted(p.name for p in replay.glob("*.igf*"))
        assert names == ["sample_00000.igf", "sample_00000.igfd",
                         "sample_00001.igf", "sample_00001.igfd"]
        for name in names:
            assert (replay / name).read_bytes() == (first / name).read_bytes(), name

    def test_recorded_command_line_reproduces_every_flag(self):
        parser = build_parser()
        common = ["--out", "o", "--config", "c.ini", "--seed", "7"]
        for argv in (["prepare", "--format", "ntu", "--input", "raw dir", "--count", "3",
                      "--classes", "2", "--frames", "20", "--amplitude", "0.5",
                      "--gen-noise", "0.1", "--k", "4"],
                     ["train", "--data", "d", "--val", "v", "--mode", "dsig_only",
                      "--noise-sigma", "0.01", "--k", "3", "--itb-layers", "2"],
                     ["eval", "--data", "d", "--checkpoint", "c", "--noise-sigma", "0.3"],
                     ["inspect-graph", "--sample=-s.igf", "--checkpoint", "c",
                      "--itb", "1", "--k", "2"],
                     ["verify", "--corrupt-op", "gelu"]):
            args = parser.parse_args(argv[:1] + ["--from-manifest", "m.json"] + common + argv[1:])
            line = _command_line(args)
            assert line[0] == argv[0] and not any("manifest" in a for a in line)
            args.from_manifest = None
            assert parser.parse_args(line) == args

    def test_manifest_without_argv_is_user_error(self, tmp_path, cfg_path):
        first = prepare_tiny(tmp_path, cfg_path, count=2)
        manifest = json.loads((first / "manifest.json").read_text())
        del manifest["argv"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        assert run("prepare", "--format", "synth", "--from-manifest", str(old),
                   "--out", str(tmp_path / "replay")) == 1

    def test_reused_out_with_other_geometry_is_refused(self, tmp_path):
        # both geometries give M=40, so the old sidecars would pass for new ones
        out = tmp_path / "data"
        configs = {}
        for P, T in ((8, 64), (16, 128)):
            configs[P] = tmp_path / f"p{P}.ini"
            configs[P].write_text(TestSidecarReuse.GEOMETRY.format(P=P, T=T))
        assert run("prepare", "--format", "synth", "--count", "6", "--frames", "64",
                   "--config", str(configs[8]), "--out", str(out), "--seed", "2") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run("prepare", "--format", "synth", "--count", "3", "--frames", "64",
                   "--config", str(configs[16]), "--out", str(out), "--seed", "2") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the same config may prepare into it again
        assert run("prepare", "--format", "synth", "--count", "6", "--frames", "64",
                   "--config", str(configs[8]), "--out", str(out), "--seed", "2") == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestTrainEval:
    def test_train_writes_artifacts(self, tmp_path, cfg_path, capsys):
        data = prepare_tiny(tmp_path, cfg_path)
        out = tmp_path / "run"
        code = run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(out), "--seed", "3")
        assert code == 0
        assert (out / "checkpoint.igfc").exists()
        assert (out / "manifest.json").exists()
        log_lines = (out / "metrics.log").read_text().strip().splitlines()
        assert len(log_lines) == 2  # one per epoch
        assert all(len(line.split("\t")) == 5 for line in log_lines)

    def test_train_determinism_byte_identical(self, tmp_path, cfg_path):
        data = prepare_tiny(tmp_path, cfg_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("train", "--data", str(data), "--config", cfg_path,
                       "--out", str(out), "--seed", "3") == 0
            outs.append(out)
        assert (outs[0] / "metrics.log").read_bytes() == (outs[1] / "metrics.log").read_bytes()
        assert (outs[0] / "checkpoint.igfc").read_bytes() == (outs[1] / "checkpoint.igfc").read_bytes()

    def test_replay_from_manifest(self, tmp_path, cfg_path):
        data = prepare_tiny(tmp_path, cfg_path)
        first = tmp_path / "first"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(first), "--seed", "3") == 0
        replay = tmp_path / "replay"
        assert run("train", "--data", str(data), "--from-manifest",
                   str(first / "manifest.json"), "--out", str(replay)) == 0
        assert (first / "metrics.log").read_bytes() == (replay / "metrics.log").read_bytes()
        assert (first / "checkpoint.igfc").read_bytes() == (replay / "checkpoint.igfc").read_bytes()

    def test_mode_flag_recorded_in_manifest(self, tmp_path, cfg_path):
        data = prepare_tiny(tmp_path, cfg_path)
        for mode in ("sdig_only", "dsig_only", "no_gimsa"):
            out = tmp_path / f"m_{mode}"
            assert run("train", "--data", str(data), "--config", cfg_path,
                       "--out", str(out), "--mode", mode) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["model"]["mode"] == mode
            assert f"--mode={mode}" in manifest["argv"]

    def test_noise_and_k_flags(self, tmp_path, cfg_path):
        data = prepare_tiny(tmp_path, cfg_path)
        out = tmp_path / "noisy"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(out), "--noise-sigma", "0.01", "--k", "3") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["noise_sigma_m"] == 0.01
        assert manifest["config"]["dsig"]["k"] == 3

    def test_eval_reports_accuracy(self, tmp_path, cfg_path, capsys):
        data = prepare_tiny(tmp_path, cfg_path)
        run_dir = tmp_path / "run"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(run_dir)) == 0
        capsys.readouterr()
        out = tmp_path / "eval"
        code = run("eval", "--data", str(data), "--checkpoint",
                   str(run_dir / "checkpoint.igfc"), "--config", cfg_path,
                   "--out", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "accuracy" in text and "confusion" in text
        assert (out / "eval.txt").exists()

    def test_eval_digest_mismatch_is_user_error(self, tmp_path, cfg_path):
        data = prepare_tiny(tmp_path, cfg_path)
        run_dir = tmp_path / "run"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(run_dir)) == 0
        other_cfg = tmp_path / "other.ini"
        other_cfg.write_text(TINY_CONFIG.replace("N = 1", "N = 2"))
        code = run("eval", "--data", str(data), "--checkpoint",
                   str(run_dir / "checkpoint.igfc"), "--config", str(other_cfg),
                   "--out", str(tmp_path / "e2"))
        assert code == 1

    def test_rejected_checkpoint_leaves_no_output(self, tmp_path, cfg_path):
        # the checkpoint is checked before eval or inspect-graph writes
        # anything into --out
        data = prepare_tiny(tmp_path, cfg_path, count=4)
        run_dir = tmp_path / "run"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(run_dir)) == 0
        blob = (run_dir / "checkpoint.igfc").read_bytes()
        from igformer.config import architecture_digest, load_config
        want = architecture_digest(load_config(cfg_path)).encode()
        assert blob.count(want) == 1
        bad = tmp_path / "zero-digest.igfc"
        bad.write_bytes(blob.replace(want, b"0" * len(want)))
        sample = sorted(data.glob("*.igf"))[0]
        for command, source in (("eval", ("--data", str(data))),
                                ("inspect-graph", ("--sample", str(sample)))):
            out = tmp_path / command
            assert run(command, *source, "--checkpoint", str(bad), "--config", cfg_path,
                       "--out", str(out)) == 1
            assert not out.exists()

    def test_itb_layers_flag(self, tmp_path, cfg_path):
        data = prepare_tiny(tmp_path, cfg_path)
        out = tmp_path / "deep"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(out), "--itb-layers", "2") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["N"] == 2

    def test_invalid_flag_values_exit_one(self, tmp_path, cfg_path):
        # flags are config values and pass the config's checks
        data = prepare_tiny(tmp_path, cfg_path, count=4)
        for flag, value in (("--itb-layers", "0"), ("--itb-layers", "-1"),
                            ("--noise-sigma", "-0.5"), ("--seed", "-1")):
            out = tmp_path / f"bad{flag}{value}"
            assert run("train", "--data", str(data), "--config", cfg_path,
                       "--out", str(out), flag, value) == 1
            assert not out.exists()

    @pytest.mark.parametrize("edit, reason", [
        (("h = 2", "h = 0"), "heads"), (("D = 8", "D = -4"), "heads"),
        (("[model]", "[model]\nscale_mode = bogus"), "scale_mode"),
        (("milestones =", "milestones = 1\nlr_decay = 0"), "lr_decay")],
        ids=["zero-heads", "negative-D", "unknown-scale-mode", "zero-lr-decay"])
    def test_out_of_range_setting_exits_one_before_writing(self, tmp_path, cfg_path, capsys,
                                                          edit, reason):
        data = prepare_tiny(tmp_path, cfg_path, count=4)
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_CONFIG.replace(*edit))
        out = tmp_path / "out"
        assert run("train", "--data", str(data), "--config", str(bad), "--out", str(out)) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_config_parse_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nN = banana\n")
        assert run("train", "--data", "x", "--config", str(bad), "--out",
                   str(tmp_path / "o")) == 1


class TestInspectGraph:
    def test_dumps_all_matrices(self, tmp_path, cfg_path, capsys):
        data = prepare_tiny(tmp_path, cfg_path)
        run_dir = tmp_path / "run"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(run_dir)) == 0
        sample = sorted(data.glob("*.igf"))[0]
        out = tmp_path / "inspect"
        code = run("inspect-graph", "--sample", str(sample), "--checkpoint",
                   str(run_dir / "checkpoint.igfc"), "--config", cfg_path,
                   "--out", str(out))
        assert code == 0
        names = {p.name for p in out.glob("*.txt")}
        assert {"A_ab.txt", "A_ba.txt", "DSIG_ab.txt", "DSIG_ba.txt",
                "rowsums.txt"} <= names
        assert "SDIG_ab_head0.txt" in names and "R_ab_head1.txt" in names
        # fused weights are row-stochastic; binary graph is exactly 0/1
        r = attention.matrix_from_text((out / "R_ab_head0.txt").read_text())
        assert np.abs(r.sum(axis=1) - 1.0).max() < 1e-6
        dsig = attention.matrix_from_text((out / "DSIG_ab.txt").read_text())
        assert set(np.unique(dsig)) <= {0.0, 1.0}

    def test_identical_persons_keep_self_edges(self, tmp_path, cfg_path):
        from igformer.skeleton import (InteractionSample, SkeletonSequence,
                                       write_canonical)
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(16, 15, 3))
        sample = InteractionSample(SkeletonSequence(coords),
                                   SkeletonSequence(coords.copy()), label=0)
        path = tmp_path / "twin.igf"
        path.write_bytes(write_canonical(sample))
        data = prepare_tiny(tmp_path, cfg_path)
        run_dir = tmp_path / "run"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(run_dir)) == 0
        out = tmp_path / "twin_inspect"
        assert run("inspect-graph", "--sample", str(path), "--checkpoint",
                   str(run_dir / "checkpoint.igfc"), "--config", cfg_path,
                   "--out", str(out), "--k", "1") == 0
        dsig = attention.matrix_from_text((out / "DSIG_ab.txt").read_text())
        assert (np.diag(dsig) == 1.0).all()

    def test_geometry_mismatch_nonzero(self, tmp_path, cfg_path):
        data = prepare_tiny(tmp_path, cfg_path)
        run_dir = tmp_path / "run"
        assert run("train", "--data", str(data), "--config", cfg_path,
                   "--out", str(run_dir)) == 0
        other_cfg = tmp_path / "other.ini"
        other_cfg.write_text(TINY_CONFIG.replace("stride = 4", "stride = 2"))
        sample = sorted(data.glob("*.igf"))[0]
        code = run("inspect-graph", "--sample", str(sample), "--checkpoint",
                   str(run_dir / "checkpoint.igfc"), "--config", str(other_cfg),
                   "--out", str(tmp_path / "x"))
        assert code == 1


class TestVerifyCommand:
    def test_negative_control_fails_named_op(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run("verify", "--corrupt-op", "gelu", "--out", str(out))
        assert code == 2
        text = capsys.readouterr().out
        assert "[FAIL] tensor.gradcheck.gelu" in text
        report = (out / "report.txt").read_text()
        assert "[FAIL] tensor.gradcheck.gelu" in report
        # the negative control runs the corrupted op's gradient check alone
        assert report.splitlines() == [report.splitlines()[0], "0/1 checks passed"]

    def test_unknown_corrupt_op_is_user_error(self, tmp_path):
        assert run("verify", "--corrupt-op", "bogus", "--out", str(tmp_path / "v")) == 1


class TestSidecarReuse:
    GEOMETRY = "[spm]\nP = {P}\nstride = {P}\npadding = 0\nT = {T}\n[model]\nD = 8\nh = 2\nN = 1\n"

    def prepare(self, tmp_path, P, T):
        path = tmp_path / f"p{P}.ini"
        path.write_text(self.GEOMETRY.format(P=P, T=T))
        out = tmp_path / "data"
        assert run("prepare", "--format", "synth", "--count", "4", "--frames", "64",
                   "--config", str(path), "--out", str(out), "--seed", "2") == 0
        return out

    def test_other_window_geometry_rebuilds_graphs(self, tmp_path):
        from igformer import cli, config as cfgmod
        from igformer.graphs import build_interaction_graphs
        data = self.prepare(tmp_path, P=8, T=64)
        cfg = cfgmod.parse_config(self.GEOMETRY.format(P=16, T=128))
        prepared, part_map = cli._load_prepared(data, cfg)
        assert cfg.spm.M(part_map.B) == 40  # the sidecars' M too
        for p in prepared:
            fresh = build_interaction_graphs(p.sample, part_map, cfg.spm, cfg.dsig.k)
            assert np.array_equal(p.graphs.dsig_ab, fresh.dsig_ab)
            assert np.array_equal(p.graphs.dsig_ba, fresh.dsig_ba)

    def test_matching_config_reads_sidecars(self, tmp_path, monkeypatch):
        from igformer import cli, config as cfgmod, graphs as gmod, training
        data = self.prepare(tmp_path, P=8, T=64)
        cfg = cfgmod.parse_config(self.GEOMETRY.format(P=8, T=64))
        builds = []
        monkeypatch.setattr(training, "build_interaction_graphs",
                            lambda *args: builds.append(args))
        prepared, _ = cli._load_prepared(data, cfg)
        assert builds == []
        for p, sidecar in zip(prepared, sorted(data.glob("*.igfd"))):
            _, _, ab, ba = gmod.read_sidecar(io.BytesIO(sidecar.read_bytes()))
            assert np.array_equal(p.graphs.dsig_ab, ab) and np.array_equal(p.graphs.dsig_ba, ba)

    def test_missing_manifest_rebuilds_graphs(self, tmp_path, monkeypatch):
        from igformer import cli, config as cfgmod, training
        data = self.prepare(tmp_path, P=8, T=64)
        (data / "manifest.json").unlink()
        cfg = cfgmod.parse_config(self.GEOMETRY.format(P=8, T=64))
        real = training.build_interaction_graphs
        builds = []

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(training, "build_interaction_graphs", counting)
        prepared, _ = cli._load_prepared(data, cfg)
        assert len(builds) == len(prepared) == 4
