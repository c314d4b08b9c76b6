"""Command-line interface: prepare, train, eval, inspect-graph, verify.

Every command takes --out, honors --seed, and writes a RunManifest (JSON with
the effective command line and every config value materialized) into the
output directory after checking its config (and any checkpoint) and before
any compute, so a finished run can be replayed bit-identically with
--from-manifest.

Exit codes: 0 success, 1 user/config error, 2 internal invariant violation.
Set IGFORMER_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import traceback
from pathlib import Path

import numpy as np

from . import attention, config as cfgmod, graphs as gmod, model as mmod
from . import skeleton as skel, training as tr, verify as vmod
from .errors import ConfigError, ParseError

log = logging.getLogger("igformer")

FORMATS = ("ntu", "sbu", "synth")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="igformer",
                     description="skeleton-based two-person interaction recognition")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="INI config file (defaults reproduce the reference setup)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--from-manifest", help="replay a previous run's manifest")

    p = sub.add_parser("prepare", help="convert raw inputs to canonical samples + graph sidecars")
    common(p)
    p.add_argument("--format", required=True, choices=FORMATS)
    p.add_argument("--input", help="input directory (ntu/sbu)")
    p.add_argument("--count", type=int, default=40,
                   help="synthetic sample count (default %(default)s)")
    p.add_argument("--classes", type=int, default=4,
                   help="synthetic class count, 1..4 (default %(default)s)")
    p.add_argument("--frames", type=int, default=64,
                   help="synthetic clip length (default %(default)s)")
    p.add_argument("--amplitude", type=float, default=1.0,
                   help="synthetic motion scale (default %(default)s)")
    p.add_argument("--gen-noise", type=float, default=0.01,
                   help="generator jitter std in meters (default %(default)s)")
    p.add_argument("--k", type=int, help="override neighbor count for sidecars")

    p = sub.add_parser("train", help="train a model on prepared data")
    common(p)
    p.add_argument("--data", required=True, help="directory of prepared samples")
    p.add_argument("--val", help="directory of prepared validation samples")
    p.add_argument("--mode", choices=attention.MODES, help="override model mode")
    p.add_argument("--noise-sigma", type=float, help="train-time joint noise std in meters")
    p.add_argument("--k", type=int, help="override neighbor count")
    p.add_argument("--itb-layers", type=int, help="override interaction block depth")

    p = sub.add_parser("eval", help="evaluate a checkpoint on prepared data")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="eval-time joint noise std in meters (default %(default)s)")

    p = sub.add_parser("inspect-graph", help="dump A, DSIG, per-head SDIG and fused R as text")
    common(p)
    p.add_argument("--sample", required=True, help="canonical sample file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--itb", type=int, default=0,
                   help="interaction block to inspect (default %(default)s)")
    p.add_argument("--k", type=int, help="override neighbor count")

    p = sub.add_parser("verify", help="run the gradient/oracle/invariant battery")
    common(p)
    p.add_argument("--corrupt-op",
                   help="negative control: corrupt one op's backward pass and run "
                        "only its gradient check")
    return parser


def _read_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        manifest = {}
    argv, config = manifest.get("argv"), manifest.get("config")
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)
            and isinstance(config, dict) and all(isinstance(kv, dict) for kv in config.values())):
        raise ConfigError(f"{path}: not a run manifest (needs an argv list and a config)")
    return manifest


def _command_line(args):
    """The command line that reproduces `args` without --from-manifest: each
    flag with a value as `--flag=value` (argparse names a flag's destination
    after the flag, with "_" for "-")."""
    line = [args.command]
    for dest, value in sorted(vars(args).items()):
        if dest not in ("command", "from_manifest") and value is not None:
            line.append(f"--{dest.replace('_', '-')}={value}")
    return line


# flags that set a config value: flag destination -> (section, key)
_CONFIG_FLAGS = {"k": ("dsig", "k"), "mode": ("model", "mode"),
                 "itb_layers": ("model", "N"), "seed": ("train", "seed")}


def _resolve_config(args):
    """The replayed manifest's config, else --config's, else the defaults,
    with the flags that set config values merged in before validation."""
    flags = dict(_CONFIG_FLAGS)
    if args.command == "train":  # eval's --noise-sigma is no training setting
        flags["noise_sigma"] = ("train", "noise_sigma_m")
    overrides = {}
    for dest, (section, key) in flags.items():
        if getattr(args, dest, None) is not None:
            overrides.setdefault(section, {})[key] = getattr(args, dest)
    if args.from_manifest:
        sections = _read_manifest(args.from_manifest)["config"]
        text = "\n".join(f"[{section}]\n" + "\n".join(f"{k} = {v}" for k, v in kv.items())
                         for section, kv in sections.items())
        return cfgmod.parse_config(text, path=args.from_manifest, overrides=overrides)
    if args.config:
        return cfgmod.load_config(args.config, overrides=overrides)
    return cfgmod.parse_config("", overrides=overrides)


def _write_manifest(args, cfg, inputs):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": cfgmod.TOOL_VERSION,
        "command": args.command,
        "seed": cfg.train.seed,
        "inputs": [str(p) for p in inputs],
        "out_dir": str(out),
        "argv": _command_line(args),
        "config": cfgmod.to_sections(cfg),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "config.ini", "w", encoding="utf-8") as fh:
        fh.write(cfgmod.config_text(cfg))
    return out


def _infer_label(path, fmt, root):
    """Class index from the file's location: the NTU `A###` action field of
    the name, or the SBU `01`..`08` class directory between `root` (the
    --input directory) and the file. ParseError otherwise."""
    if fmt == "ntu":
        m = re.search(r"A(\d{3})", path.stem)
        if m and int(m.group(1)) >= 1:
            return int(m.group(1)) - 1
        raise ParseError(f"no action field A001..A999 in file name {path.name!r}")
    for part in reversed(path.relative_to(root).parent.parts):
        if re.fullmatch(r"0[1-8]", part):
            return int(part) - 1
    raise ParseError(f"{path} lies in no class directory 01..08 below {root}")


def _sample_name(path, root):
    """Output name of an input file: its path below `root` (the --input
    directory) without the suffix, directories joined by "_". Every SBU
    file is called skeleton_pos.txt, so the file stem alone is not unique."""
    return "_".join(path.relative_to(root).with_suffix("").parts)


def _write_sample(out, stem, sample, cfg):
    graphs = tr.prepare_sample(sample, cfg.spm, cfg.dsig.k).graphs
    (out / f"{stem}.igf").write_bytes(skel.write_canonical(sample))
    (out / f"{stem}.igfd").write_bytes(gmod.write_sidecar(graphs))


def _read(reader, path):
    with open(path, "rb") as fh:
        return reader(fh)


def cmd_prepare(args):
    cfg = _resolve_config(args)
    if args.format in ("ntu", "sbu") and not args.input:
        raise ConfigError(f"--input is required for --format {args.format}")
    inputs = [args.input] if args.input else []
    m = cfg.spm.M(5)  # every built-in part map has five parts
    if cfg.dsig.k > m:
        raise ConfigError(f"k={cfg.dsig.k} outside 1..{m}")
    if any(Path(args.out).glob("*.igf")) and not _sidecars_fit(args.out, cfg):
        raise ConfigError(f"{args.out} holds samples prepared with other [spm] or [dsig] "
                          f"settings; prepare into an empty directory")
    out = _write_manifest(args, cfg, inputs)
    written = 0
    failures = 0
    if args.format == "synth":
        if not 1 <= args.classes <= len(tr.SYNTH_CLASSES):
            raise ConfigError(f"--classes must be in 1..{len(tr.SYNTH_CLASSES)}")
        samples = tr.make_synth_dataset(args.count, classes=args.classes,
                                        T=args.frames, amplitude=args.amplitude,
                                        noise=args.gen_noise, seed=cfg.train.seed)
        for i, sample in enumerate(samples):
            _write_sample(out, f"sample_{i:05d}", sample, cfg)
            written += 1
    else:
        pattern = "*.skeleton" if args.format == "ntu" else "*.txt"
        files = sorted(Path(args.input).rglob(pattern))
        if not files:
            raise ConfigError(f"no {pattern} files under {args.input}")
        taken = set()
        for path in files:
            try:
                label = _infer_label(path, args.format, args.input)
                name = _sample_name(path, args.input)
                if name in taken:
                    raise ConfigError(f"output name {name!r} is taken by an earlier input")
                if args.format == "ntu":
                    bodies, _ = skel.parse_ntu(path.read_bytes())
                    sample = skel.ntu_to_sample(bodies, label=label, source_id=name)
                else:
                    sample = skel.parse_sbu(path.read_bytes(), label=label, source_id=name)
                _write_sample(out, name, sample, cfg)
                taken.add(name)
                written += 1
            except (ParseError, ConfigError, OSError) as exc:
                failures += 1
                log.warning("skipping %s: %s", path, exc)
    print(f"prepared {written} samples, {failures} failures -> {out}")
    if written == 0:
        raise ConfigError("every input failed to parse")
    return 0


def _sidecars_fit(data_dir, cfg):
    """Whether the manifest `prepare` left in `data_dir` records the [spm] and [dsig]
    sections of `cfg`, all that its .igfd sidecars depend on besides the coordinates."""
    current = cfgmod.to_sections(cfg)
    try:
        with open(Path(data_dir) / "manifest.json", "r", encoding="utf-8") as fh:
            recorded = json.load(fh)["config"]
        return all(recorded[section] == current[section] for section in ("spm", "dsig"))
    except (OSError, ValueError, KeyError, TypeError):
        return False


def _load_prepared(data_dir, cfg):
    files = sorted(Path(data_dir).glob("*.igf"))
    if not files:
        raise ConfigError(f"no prepared samples (*.igf) in {data_dir}")
    trust_sidecars = _sidecars_fit(data_dir, cfg)
    if not trust_sidecars:
        log.info("rebuilding graphs: %s/manifest.json does not record this config's "
                 "[spm] and [dsig] sections", data_dir)
    prepared = []
    part_map = None
    for path in files:
        sample = _read(skel.read_canonical, path)
        if part_map is None:
            part_map = skel.builtin_part_map(sample.person_a.J)
        graphs = None
        sidecar = path.with_suffix(".igfd")
        if trust_sidecars and sidecar.exists():
            m, k, ab, ba = _read(gmod.read_sidecar, sidecar)
            if m == cfg.spm.M(part_map.B) and k == cfg.dsig.k:
                graphs = gmod.InteractionGraphs(None, None, ab, ba, k)
        prepared.append(tr.prepare_sample(sample, cfg.spm, cfg.dsig.k, part_map, graphs))
    labels = sorted({p.label for p in prepared})
    if labels and labels[-1] >= cfg.model.num_classes:
        raise ConfigError(f"label {labels[-1]} needs num_classes > {labels[-1]}, "
                          f"config says {cfg.model.num_classes}")
    return prepared, part_map


def cmd_train(args):
    cfg = _resolve_config(args)
    prepared, part_map = _load_prepared(args.data, cfg)
    val_set = None
    if args.val:
        val_set, _ = _load_prepared(args.val, cfg)
    out = _write_manifest(args, cfg, [args.data] + ([args.val] if args.val else []))
    model = mmod.init_params(cfg.model, seed=cfg.train.seed, part_map=part_map)
    log_path = out / "metrics.log"
    with open(log_path, "w", encoding="utf-8") as fh:
        def emit(line):
            fh.write(line + "\n")
            fh.flush()
            log.info("%s", line)
        result = tr.train(model, prepared, cfg.train, val_set=val_set, log_fn=emit)
    digest = cfgmod.architecture_digest(cfg)
    (out / "checkpoint.igfc").write_bytes(mmod.save_checkpoint(model, digest))
    final = result.metrics[-1]
    print(f"trained {cfg.train.epochs} epochs ({result.steps} steps); "
          f"final train acc {final[3]:.3f}, val acc {final[4]:.3f} -> {out}")
    return 0


def _load_model(checkpoint_path, cfg, part_map):
    """The checkpoint's model, built from its arrays alone (no random init)."""
    digest, params = _read(mmod.load_checkpoint, checkpoint_path)
    want = cfgmod.architecture_digest(cfg)
    if digest != want:
        raise ConfigError(f"checkpoint digest {digest} does not match the "
                          f"config's architecture digest {want}")
    return mmod.restore_params(cfg.model, params, part_map=part_map)


def cmd_eval(args):
    cfg = _resolve_config(args)
    prepared, part_map = _load_prepared(args.data, cfg)
    model = _load_model(args.checkpoint, cfg, part_map)
    out = _write_manifest(args, cfg, [args.data, args.checkpoint])
    report = tr.evaluate(model, prepared, noise_sigma_m=args.noise_sigma,
                         noise_seed=cfg.train.seed)
    class_names = tr.SYNTH_CLASSES if cfg.model.num_classes <= len(tr.SYNTH_CLASSES) else None
    text = report.text(class_names=class_names)
    (out / "eval.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_inspect_graph(args):
    cfg = _resolve_config(args)
    sample = _read(skel.read_canonical, args.sample)
    part_map = skel.builtin_part_map(sample.person_a.J)
    if not 0 <= args.itb < cfg.model.N:
        raise ConfigError(f"--itb must be in 0..{cfg.model.N - 1}")
    model = _load_model(args.checkpoint, cfg, part_map)
    prepared = tr.prepare_sample(sample, cfg.spm, cfg.dsig.k, part_map)
    graphs = prepared.graphs
    out = _write_manifest(args, cfg, [args.sample, args.checkpoint])
    collect = {}
    with model.inference():
        model.forward(prepared.sample, graphs, collect=collect)
    block = collect[f"itb{args.itb}"]

    def dump(name, matrix):
        (out / f"{name}.txt").write_text(attention.matrix_to_text(matrix), encoding="utf-8")

    dump("A_ab", graphs.A_ab)
    dump("A_ba", graphs.A_ba)
    dump("DSIG_ab", graphs.dsig_ab)
    dump("DSIG_ba", graphs.dsig_ba)
    rowsum_lines = []
    for tag in ("ab", "ba"):
        for head, matrix in enumerate(block.get(f"sdig_{tag}", [])):
            dump(f"SDIG_{tag}_head{head}", matrix)
        for head, matrix in enumerate(block.get(f"r_{tag}", [])):
            dump(f"R_{tag}_head{head}", matrix)
            dev = np.abs(matrix.sum(axis=1) - 1.0).max()
            rowsum_lines.append(f"R_{tag}_head{head} max |rowsum - 1| = {dev:.3e}")
    (out / "rowsums.txt").write_text("\n".join(rowsum_lines) + "\n", encoding="utf-8")
    print("\n".join(rowsum_lines))
    print(f"graph dumps -> {out}")
    return 0


def cmd_verify(args):
    cfg = _resolve_config(args)
    out = _write_manifest(args, cfg, [])
    lines = []

    def emit(line):
        lines.append(line)
        print(line)

    ok, results = vmod.run_checks(corrupt_op=args.corrupt_op, log_fn=emit)
    summary = f"{sum(1 for _, p, _ in results if p)}/{len(results)} checks passed"
    emit(summary)
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not ok:
        failed = [name for name, passed, _ in results if not passed]
        raise AssertionError(f"failed checks: {', '.join(failed)}")
    return 0


def main(argv=None):
    logging.basicConfig(level=getattr(logging, os.environ.get("IGFORMER_LOG", "WARNING").upper(),
                                      logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.from_manifest:
            # the recorded command line, then the given one: the last value of
            # a flag wins, so explicit flags beat recorded values, which beat
            # the defaults
            recorded = _read_manifest(args.from_manifest)["argv"]
            args = parser.parse_args([args.command] + recorded[1:] + argv[1:])
        handler = {"prepare": cmd_prepare, "train": cmd_train, "eval": cmd_eval,
                   "inspect-graph": cmd_inspect_graph, "verify": cmd_verify}[args.command]
        return handler(args)
    except (ConfigError, ParseError, FileNotFoundError, NotADirectoryError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
