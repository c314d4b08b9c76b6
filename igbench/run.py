#!/usr/bin/env python3
"""IGFormer benchmark: one workload per process, checked against oracles.

    python3 igbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Every workload runs the whole pipeline at one configuration: `cli prepare`
on generated NTU `.skeleton` files, `cli eval --noise-sigma` on what it
prepared with a checkpoint written at set-up, and `training.train` on
synthetic clips. The workloads differ in configuration and in how the run's
seconds are shared between those three stages. After its stages a run checks
the prepared files, the eval report and the first training step against
the oracles in `oracles.py`, and feeds each check one corrupted output to
show that the check fails on it.

The last line of standard output is the result: the end-to-end metrics with
`--trace 0`, or the per-layer metrics of a traced run with `--trace 1`. The
same result, with the environment, goes to `igbench/out/`.
"""

from __future__ import annotations

import os
import sys

# Single process, BLAS threads capped at the cores this process may use.
CORES = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CORES)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NOISE_SIGMA_M = 0.01
SETUPS_MIN = 3
DESK_GEOMETRY = {"D": 32, "h": 4, "N": 2, "M": 40, "T": 64, "k": 15, "batch": 32}


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # INI text, or "@path" relative to the repository root
    train_clips: int     # synthetic clips trained on, one epoch per timing unit
    batch: int
    ntu_files: int       # files per prepare call and per eval call
    shares: tuple        # (setup, prepare, eval, train) parts of the measured seconds
    probed: tuple        # parameters in the finite-difference probe
    replays: int         # repetitions of each isolated backward replay


WORKLOADS = {w.name: w for w in (
    # Desk config: training bound by Python dispatch on the tape.
    Workload("desk-train", "@configs/synth-tiny.ini", train_clips=64, batch=32,
             ntu_files=8, shares=(0.1, 0.2, 0.2, 0.5),
             probed=("spm.conv.kernel", "itb0.se.attn.wq", "itb0.gi.h0.wq", "head.w"),
             replays=20),
    # Paper's reference config at batch 2: bound by GEMMs and a 54M-parameter step.
    Workload("reference-train", "", train_clips=2, batch=2, ntu_files=2,
             shares=(0.1, 0.05, 0.35, 0.5), probed=("spm.conv.kernel", "itb0.gi.h0.wq"),
             replays=3),
    # Desk width at the reference token geometry: text parsing, padding,
    # graph building and file IO around forward-only inference.
    Workload("ntu-ingest", "[model]\nD = 32\nh = 4\nN = 2\n", train_clips=16, batch=16,
             ntu_files=16, shares=(0.1, 0.35, 0.35, 0.2),
             probed=("spm.conv.kernel", "itb0.se.attn.wq", "itb0.gi.h0.wq", "head.w"),
             replays=10),
)}


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "igformer" / "__init__.py").is_file():
    _fail(f"no igformer sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import igformer  # noqa: E402
from igformer import cli, config as cfgmod, model as mmod, skeleton as skel  # noqa: E402
from igformer import tensor as T, training as tr  # noqa: E402

import ntu  # noqa: E402
import oracles as O  # noqa: E402
import spans  # noqa: E402

if Path(igformer.__file__).resolve().parent != SRC / "igformer":
    _fail(f"igformer imported from {igformer.__file__}, not from {SRC}")


def now():
    return time.perf_counter()


# -- environment -------------------------------------------------------------

def _blas_threads():
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"cores": os.cpu_count(), "cores_usable": CORES,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": _blas_threads(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "default_dtype": np.dtype(T.default_dtype()).name, "src_lines": src_lines}


# -- set-up --------------------------------------------------------------------

def resolve_config(workload, seed):
    if workload.config.startswith("@"):
        cfg = cfgmod.load_config(ROOT / workload.config[1:])
        got = {"D": cfg.model.D, "h": cfg.model.h, "N": cfg.model.N,
               "M": cfg.spm.M(5), "T": cfg.spm.T, "k": cfg.dsig.k,
               "batch": cfg.train.batch_size}
        if got != DESK_GEOMETRY:
            _fail(f"{workload.config[1:]} gives {got}, the desk workload is {DESK_GEOMETRY}")
    else:
        cfg = cfgmod.parse_config(workload.config)
    cfg.train.seed = seed
    return cfg


@dataclass
class Setup:
    train_set: list
    files: list
    net: object
    checkpoint_bytes: int


def set_up(workload, cfg, seed, work):
    """Synthetic clips with prebuilt graphs, NTU files, a model and its checkpoint."""
    work.mkdir(parents=True, exist_ok=True)
    clips = tr.make_synth_dataset(workload.train_clips, T=cfg.spm.T, seed=seed)
    train_set = tr.prepare_dataset(clips, skel.builtin_part_map(15), cfg.spm, cfg.dsig.k)
    files = ntu.make_files(seed, workload.ntu_files, cfg.spm.T)
    raw = work / "raw"
    raw.mkdir(exist_ok=True)
    for stem, text, _, _ in files:
        (raw / f"{stem}.skeleton").write_text(text, encoding="utf-8")
    net = mmod.init_params(cfg.model, seed=seed, part_map=skel.builtin_part_map(15))
    checkpoint = mmod.save_checkpoint(net, cfgmod.architecture_digest(cfg))
    (work / "model.igfc").write_bytes(checkpoint)
    return Setup(train_set, files, net, len(checkpoint))


# -- measured stages -------------------------------------------------------------

STAGES = ("setup", "prepare", "eval", "train")


class Stage:
    """Whole units (set-ups, CLI calls or epochs) of one stage of the pipeline."""

    def __init__(self, share, min_units=1):
        self.share = share
        self.min_units = min_units
        self.samples, self.seconds, self.spans = [], [], []
        self.attempted = self.failed = 0

    def record(self, samples, seconds, ok=True, spans=(0, 0)):
        self.attempted += samples
        if ok:
            self.samples.append(samples)
            self.seconds.append(seconds)
            self.spans.append(spans)
        else:
            self.failed += samples

    def behind(self):
        if len(self.seconds) < self.min_units:
            return -1.0
        return sum(self.seconds) / self.share

    def rate(self):
        """The samples per second that nine in ten of the stage's units reach."""
        return decile([n / s for n, s in zip(self.samples, self.seconds)], 1)

    def unit_seconds(self):
        """The seconds that nine in ten of the stage's units stay within."""
        return decile(self.seconds, 9)


def decile(values, k):
    """The k-th decile of `values`, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class _BudgetSpent(Exception):
    pass


def measure(stages, units, net, train_set, workload, seed, seconds, tracer):
    """Interleave whole units of every stage for `seconds` seconds.

    Training runs as one `training.train` call; after each epoch the other
    stages run units until each has had its share of the time so far, so
    every stage samples the whole run rather than one stretch of it.
    Objects alive when a set-up, prepare or eval unit starts are frozen out
    of the garbage collections inside it: between epochs `training.train`
    still holds the last batch's tape, and walking those tensors is a cost
    the stage does not have when it runs alone.
    """
    train = stages["train"]
    losses = []
    start = mark = now()

    def timed(stage, samples, fn):
        gc.freeze()
        try:
            first = len(tracer.spans) if tracer else 0
            begin = now()
            ok = fn()
            stage.record(samples, now() - begin, ok, (first, len(tracer.spans) if tracer else 0))
        finally:
            gc.unfreeze()

    def on_epoch(line):
        nonlocal mark
        train.record(len(train_set), now() - mark)
        losses.append(float(line.split("\t")[2]))
        while True:
            name = min(units, key=lambda n: stages[n].behind())
            if stages[name].behind() >= train.behind():
                break
            timed(stages[name], *units[name])
        if now() - start >= seconds:
            raise _BudgetSpent
        mark = now()

    cfg = tr.TrainConfig(epochs=10 ** 9, batch_size=workload.batch, milestones=(), seed=seed)
    try:
        tr.train(net, train_set, cfg, log_fn=on_epoch)
    except _BudgetSpent:
        pass
    except (igformer.TrainingDiverged, igformer.NumericError):
        train.record(len(train_set), now() - mark, ok=False)
    return losses


# -- checks ----------------------------------------------------------------------

def oracle_samples(cfg, files):
    """{stem: (label, kept bodies, padded prepared sample)} from the generator's truth."""
    parts = [idx for _, idx in skel.builtin_part_map(25).parts]
    out = {}
    for stem, _, frames, label in files:
        kept = O.ntu_kept_bodies(frames)
        a, b = (O.repeat_pad(c, cfg.spm.T) for c in kept)
        ab, ba = O.dsig_oracle(a, b, parts, cfg.spm, cfg.dsig.k)
        sample = skel.InteractionSample(skel.SkeletonSequence(a), skel.SkeletonSequence(b),
                                        label=label, source_id=stem)
        graphs = igformer.graphs.InteractionGraphs(None, None, ab, ba, cfg.dsig.k)
        out[stem] = (label, kept, tr.PreparedSample(sample, graphs))
    return out


def read_prepared(prepared_dir, stems):
    """{stem: (label, coords_a, coords_b, M, k, dsig_ab, dsig_ba)} as prepare wrote them."""
    return {stem: (*O.read_igf((prepared_dir / f"{stem}.igf").read_bytes()),
                   *O.read_igfd((prepared_dir / f"{stem}.igfd").read_bytes()))
            for stem in stems}


def check_prepared(cfg, truth, written):
    """Each .igf holds the ranked bodies and label; each .igfd equals the oracle."""
    for stem, (label, (want_a, want_b), want) in sorted(truth.items()):
        got_label, a, b, m, k, ab, ba = written[stem]
        O.require(got_label == label, f"{stem}: label {got_label}, file name says {label}")
        O.require(np.array_equal(a, want_a) and np.array_equal(b, want_b),
                  f"{stem}: coordinates differ from the ranked bodies")
        O.require((m, k) == (cfg.spm.M(5), cfg.dsig.k), f"{stem}: sidecar header {(m, k)}")
        O.require(np.array_equal(ab, want.graphs.dsig_ab)
                  and np.array_equal(ba, want.graphs.dsig_ba),
                  f"{stem}: sidecar differs from the distance-graph oracle")


def corrupt_prepared(written, field):
    """The same files with one coordinate moved or one DSIG bit flipped."""
    stem = min(written)
    fields = list(written[stem])
    if field == "coordinate":
        fields[1] = fields[1].copy()
        fields[1][0, 0, 0] += 1e-9
    else:
        fields[5] = fields[5].copy()
        fields[5][0, 0] = not fields[5][0, 0]
    return {**written, stem: tuple(fields)}


def eval_oracle(net, truth, seed):
    """`training.evaluate` in process on samples built from the generator's truth."""
    net = copy.copy(net)
    net.part_map = skel.builtin_part_map(25)
    samples = [want for _, (_, _, want) in sorted(truth.items())]
    return tr.evaluate(net, samples, noise_sigma_m=NOISE_SIGMA_M, noise_seed=seed).confusion


def check_eval(confusion, want, files):
    O.require(confusion.sum() == files,
              f"confusion totals {confusion.sum()}, {files} files were evaluated")
    O.require(np.array_equal(confusion, want), "eval confusion differs from the in-process one")


def swap_prediction(confusion):
    """The same confusion with one prediction moved to another class."""
    bad = confusion.copy()
    row = int(np.argmax(bad.sum(axis=1)))
    col = int(np.argmax(bad[row]))
    bad[row, col] -= 1
    bad[row, (col + 1) % bad.shape[1]] += 1
    return bad


def check_first_step(net, train_set, workload, seed):
    """Tape gradients against central differences, and the first update
    against the Nesterov closed form, on the first batch of a training run.
    Returns the negative-control verdicts: each must be False."""
    batch = []

    def recording_loss(sample, graphs, dropout_rng=None):
        batch.append((sample, graphs))
        return type(net).loss(net, sample, graphs, dropout_rng)

    net.loss = recording_loss
    registry = net.named_parameters()
    probed = [registry[name] for name in workload.probed]
    controls = {}
    real_step = T.sgd_nesterov_step

    def batch_loss():
        for p in registry.values():
            p.requires_grad = False
        try:
            return sum(O.cross_entropy(net.forward(s, g).data, s.label) for s, g in batch) / len(batch)
        finally:
            for p in registry.values():
                p.requires_grad = True

    def spy(params, grads, state, lr, momentum=0.9):
        positions = [next(i for i, p in enumerate(params) if p is q) for q in probed]
        before = [(params[i].data.copy(), grads[i].copy(), state[i].copy()) for i in positions]
        for name, (w, g, _), p in zip(workload.probed, before, probed):
            index = np.unravel_index(int(np.argmax(np.abs(g))), g.shape)
            probe = O.central_difference(batch_loss, p.data, index)
            O.check_gradient(name, g[index], probe)
            controls["gradient"] = (controls.get("gradient", True)
                                    and _fails(O.check_gradient, name, 1.1 * g[index], probe))
        result = real_step(params, grads, state, lr, momentum)
        for name, (w, g, v), i in zip(workload.probed, before, positions):
            want_w, want_v = O.nesterov(w, g, v, lr, momentum)
            O.check_update(name, want_v, state[i])
            O.check_update(name, want_w, params[i].data)
            bad = params[i].data.copy()
            bad.flat[0] += lr * 1e-6
            controls["update"] = (controls.get("update", True)
                                  and _fails(O.check_update, name, want_w, bad))
        return result

    T.sgd_nesterov_step = spy
    try:
        first = train_set[:workload.batch]
        result = tr.train(net, first, tr.TrainConfig(epochs=1, batch_size=workload.batch,
                                                     milestones=(), seed=seed))
    finally:
        T.sgd_nesterov_step = real_step
        del net.loss
    O.require(result.steps == 1 and len(batch) == len(first), "first-step check did not run")
    O.require(np.isfinite(result.metrics[0][2]), "first-batch loss is not finite")
    return controls


def _fails(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except O.CheckFailed:
        return True
    return False


# -- one run -------------------------------------------------------------------

def run(workload, seed, seconds, traced):
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    try:
        return _run(workload, seed, seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer:
            tracer.uninstall()


def _run(workload, seed, seconds, tracer, work):
    cfg = resolve_config(workload, seed)
    work.mkdir(parents=True)
    cfg_path = work / "config.ini"
    cfg_path.write_text(cfgmod.config_text(cfg), encoding="utf-8")
    stages = {name: Stage(share) for name, share in zip(STAGES, workload.shares)}
    stages["setup"].min_units = SETUPS_MIN

    if tracer:
        tracer.enabled = True
    begin = now()
    setup = set_up(workload, cfg, seed, work)
    stages["setup"].record(1, now() - begin, spans=(0, len(tracer.spans) if tracer else 0))
    if tracer:
        tracer.enabled = False

    checks = {}

    def attempt(name, fn, *args):
        try:
            result = fn(*args)
            checks[name] = True
            return result
        except O.CheckFailed as exc:
            checks[name] = False
            print(f"check {name} failed: {exc}", file=sys.stderr)
            return {}

    # before training moves the weights away from the saved checkpoint
    truth = oracle_samples(cfg, setup.files)
    want = eval_oracle(setup.net, truth, seed)
    controls = attempt("first_step", check_first_step, setup.net, setup.train_set, workload, seed)

    prepared_dir, eval_dir = work / "prepared", work / "eval"
    common = ["--config", cfg_path, "--seed", seed]
    prepare_argv = ["prepare", "--format", "ntu", "--input", work / "raw",
                    "--out", prepared_dir, *common]
    eval_argv = ["eval", "--data", prepared_dir, "--checkpoint", work / "model.igfc",
                 "--noise-sigma", NOISE_SIGMA_M, "--out", eval_dir, *common]
    units = {
        "setup": (1, lambda: bool(set_up(workload, cfg, seed, work / "again"))),
        "prepare": (workload.ntu_files, lambda: run_cli(prepare_argv) == 0),
        "eval": (workload.ntu_files, lambda: run_cli(eval_argv) == 0),
    }
    if tracer:
        tracer.enabled = True
    losses = measure(stages, units, setup.net, setup.train_set, workload, seed, seconds, tracer)
    if tracer:
        tracer.enabled = False

    written = read_prepared(prepared_dir, truth)
    attempt("prepared_files", check_prepared, cfg, truth, written)
    for field in ("dsig", "coordinate"):
        controls[field] = _fails(check_prepared, cfg, truth, corrupt_prepared(written, field))
    confusion = O.parse_confusion((eval_dir / "eval.txt").read_text(encoding="utf-8"))
    attempt("eval_confusion", check_eval, confusion, want, len(truth))
    controls["prediction"] = _fails(check_eval, swap_prediction(confusion), want, len(truth))
    train = stages["train"]
    checks["train_losses_finite"] = bool(losses) and all(np.isfinite(losses))
    checks["trained_equals_attempted"] = (
        train.failed == 0 and train.attempted == len(losses) * len(setup.train_set))
    for name, caught in controls.items():
        checks[f"control_{name}_caught"] = caught

    metrics = {
        "train_samples_per_s": (train.rate(), "samples/s"),
        "prepare_samples_per_s": (stages["prepare"].rate(), "samples/s"),
        "eval_samples_per_s": (stages["eval"].rate(), "samples/s"),
        "setup_s": (stages["setup"].unit_seconds(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if tracer:
        metrics = traced_metrics(tracer, setup, metrics, stages, workload)
    return {
        "correct": all(checks.values()),
        "attempted": sum(s.attempted for s in stages.values()),
        "failed": sum(s.failed for s in stages.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, {"checks": checks,
        "units": {k: {"samples": s.samples, "seconds": s.seconds} for k, s in stages.items()}}


def traced_metrics(tracer, setup, untraced, stages, workload):
    out = {name: (value, "ms") for name, value in tracer.summary().items()}
    # graph builds in one set-up, one prepare call and one eval call
    out["graphs.build_calls"] = (sum(tracer.count("graphs.build", *stages[name].spans[0])
                                     for name in ("setup", "prepare", "eval")), "count")
    out["model.checkpoint_bytes"] = (setup.checkpoint_bytes, "bytes")
    for name, value in spans.replay_backward_ms(setup.net, setup.train_set[0],
                                                workload.replays).items():
        out[name] = (value, "ms")
    loss, _ = setup.net.loss(setup.train_set[0].sample, setup.train_set[0].graphs)
    out["tensor.tape_nodes_per_sample"] = (spans.tape_nodes(loss), "count")
    for name in ("train_samples_per_s", "prepare_samples_per_s", "eval_samples_per_s"):
        out[f"trace.{name}"] = untraced[name]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = environment()
    result, detail = run(workload, args.seed, args.seconds, bool(args.trace))
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **detail, "result": result}
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env, "checks": detail["checks"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
