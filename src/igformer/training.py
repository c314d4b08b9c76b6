"""Training loop, LR schedule, evaluation, and a deterministic synthetic
two-person interaction generator for desk-scale experiments.

The synthetic classes are built so that approaching and departing pairs are
hard to tell apart from either person alone (random placement, mirroring,
and a shared drift make one body's absolute motion ambiguous) while the
relative distance dynamics separate them cleanly; handshakes and kicks add
part-level signatures. Cross-person information therefore carries real
signal, which is what the interaction-graph attention is for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, TrainingDiverged
from .graphs import build_interaction_graphs
from .skeleton import (InteractionSample, SkeletonSequence, add_joint_noise, builtin_part_map,
                       pad_sample)

SYNTH_CLASSES = ("approach", "depart", "right_hand_shake", "right_leg_kick")

# 15-joint standing template in meters (x lateral, y up, z depth), in the
# order head, neck, torso, then left arm / right arm / left leg / right leg.
_TEMPLATE = np.array([
    [0.0, 1.65, 0.00],   # head
    [0.0, 1.50, 0.00],   # neck
    [0.0, 1.20, 0.00],   # torso
    [0.0, 1.45, 0.22],   # left shoulder
    [0.0, 1.18, 0.26],   # left elbow
    [0.0, 0.95, 0.30],   # left hand
    [0.0, 1.45, -0.22],  # right shoulder
    [0.0, 1.18, -0.26],  # right elbow
    [0.0, 0.95, -0.30],  # right hand
    [0.0, 0.90, 0.12],   # left hip
    [0.0, 0.50, 0.14],   # left knee
    [0.0, 0.08, 0.16],   # left foot
    [0.0, 0.90, -0.12],  # right hip
    [0.0, 0.50, -0.14],  # right knee
    [0.0, 0.08, -0.16],  # right foot
])
_RIGHT_ARM = (6, 7, 8)
_RIGHT_LEG = (12, 13, 14)
_ARM_WEIGHTS = (0.15, 0.55, 1.0)   # shoulder, elbow, hand
_LEG_WEIGHTS = (0.05, 0.5, 1.0)    # hip, knee, foot


@dataclass
class SynthSpec:
    class_id: int
    T: int = 64
    amplitude: float = 1.0
    noise: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.class_id < len(SYNTH_CLASSES):
            raise ConfigError(f"class_id must be in 0..{len(SYNTH_CLASSES) - 1}")
        if self.T < 2:
            raise ConfigError("need at least two frames")


def _synth_draws(rng, spec):
    """All random choices, drawn in a fixed order shared by every class."""
    return {
        "center": rng.uniform(-1.5, 1.5),
        "sep": rng.uniform(1.8, 2.6),
        "mirror": rng.uniform() < 0.5,
        "drift": np.array([rng.uniform(-0.35, 0.35), 0.0, rng.uniform(-0.1, 0.1)]),
        "share": rng.uniform(0.25, 0.75),
        "pose_a": rng.normal(scale=0.015, size=(15, 3)),
        "pose_b": rng.normal(scale=0.015, size=(15, 3)),
        "sway_phase": rng.uniform(0.0, 2 * math.pi, size=2),
        "noise": rng.normal(size=(spec.T, 2, 15, 3)),
    }


def _assemble(spec, draws, sep, offset_a, offset_b, limb_a=None, limb_b=None):
    """Common clip construction: place, drift, sway, limb motion, jitter."""
    t_axis = np.linspace(0.0, 1.0, spec.T)
    side = -1.0 if draws["mirror"] else 1.0
    base_a = _TEMPLATE + draws["pose_a"]
    base_b = _TEMPLATE + draws["pose_b"]
    x_a = draws["center"] - side * sep / 2.0
    x_b = draws["center"] + side * sep / 2.0
    coords = np.empty((spec.T, 2, 15, 3))
    for f, u in enumerate(t_axis):
        drift = draws["drift"] * u
        sway_a = 0.015 * math.sin(2 * math.pi * u + draws["sway_phase"][0])
        sway_b = 0.015 * math.sin(2 * math.pi * u + draws["sway_phase"][1])
        pa = base_a + drift
        pb = base_b + drift
        pa = pa + np.array([0.0, 0.0, sway_a])
        pb = pb + np.array([0.0, 0.0, sway_b])
        pa[:, 0] += x_a + offset_a(u) * side
        pb[:, 0] += x_b - offset_b(u) * side
        if limb_a is not None:
            limb_a(pa, u, side)
        if limb_b is not None:
            limb_b(pb, u, -side)
        coords[f, 0] = pa
        coords[f, 1] = pb
    coords += spec.noise * draws["noise"]
    return coords


def synth_generate(spec):
    """One deterministic synthetic sample; same (spec, seed) twice is bit-identical."""
    rng = np.random.default_rng(spec.seed)
    draws = _synth_draws(rng, spec)
    name = SYNTH_CLASSES[spec.class_id]
    still = lambda u: 0.0

    if name in ("approach", "depart"):
        # depart is the exact frame reversal of the same-seed approach clip
        move_a = lambda u: spec.amplitude * draws["share"] * u
        move_b = lambda u: spec.amplitude * (1.0 - draws["share"]) * u
        coords = _assemble(spec, draws, draws["sep"], move_a, move_b)
        if name == "depart":
            coords = coords[::-1].copy()
    elif name == "right_hand_shake":
        sep = 0.55 * draws["sep"]
        cycles = 2.0 + (1.0 if rng.uniform() < 0.5 else 0.0)
        reach = 0.5 * spec.amplitude

        def shake(p, u, toward):
            ext = reach * 0.5 * (1.0 - math.cos(2 * math.pi * cycles * u))
            for j, w in zip(_RIGHT_ARM, _ARM_WEIGHTS):
                p[j, 0] += toward * w * ext
                p[j, 1] += 0.25 * w * ext  # hands lift as they extend

        coords = _assemble(spec, draws, sep, still, still, limb_a=shake, limb_b=shake)
    elif name == "right_leg_kick":
        sep = 0.65 * draws["sep"]
        swing = 0.9 * spec.amplitude

        def kick(p, u, toward):
            ext = swing * math.sin(math.pi * u)
            for j, w in zip(_RIGHT_LEG, _LEG_WEIGHTS):
                p[j, 0] += toward * w * ext
                p[j, 1] += 0.55 * w * ext  # foot rises toward the torso

        coords = _assemble(spec, draws, sep, still, still, limb_a=kick)
    else:  # pragma: no cover - guarded by SynthSpec
        raise ConfigError(f"unknown class {name!r}")

    return InteractionSample(SkeletonSequence(coords[:, 0], person_index=0),
                             SkeletonSequence(coords[:, 1], person_index=1),
                             label=spec.class_id,
                             source_id=f"synth-{name}-{spec.seed}")


def make_synth_dataset(count, classes=4, T=64, amplitude=1.0, noise=0.01, seed=0):
    """Balanced list of samples; label of sample i is i % classes."""
    if not 1 <= classes <= len(SYNTH_CLASSES):
        raise ConfigError(f"classes must be in 1..{len(SYNTH_CLASSES)}")
    return [synth_generate(SynthSpec(class_id=i % classes, T=T, amplitude=amplitude,
                                     noise=noise, seed=(seed, i)))
            for i in range(count)]


# -- training -------------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    milestones: tuple = (30, 40)
    lr_decay: float = 0.1
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    noise_sigma_m: float = 0.0

    def __post_init__(self):
        self.milestones = tuple(self.milestones)
        if self.lr <= 0 or self.lr_decay <= 0:
            raise ConfigError("lr and lr_decay must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if list(self.milestones) != sorted(set(self.milestones)):
            raise ConfigError("milestones must be strictly increasing")
        if self.milestones and self.milestones[-1] >= self.epochs:
            raise ConfigError("milestones must lie before the last epoch")
        if self.noise_sigma_m < 0:
            raise ConfigError("noise sigma must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def lr_at(epoch, cfg):
    """Base LR decayed once per passed milestone."""
    if not 0 <= epoch < cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside 0..{cfg.epochs - 1}")
    passed = sum(1 for m in cfg.milestones if epoch >= m)
    return cfg.lr * cfg.lr_decay ** passed


@dataclass
class PreparedSample:
    sample: InteractionSample  # padded to the tokenizer's frame count
    graphs: object

    @property
    def label(self):
        return self.sample.label


def prepare_sample(sample, spm_cfg, k, part_map=None, graphs=None):
    """The model input of one sample: padded to the tokenizer's frame count,
    with `graphs`, or else its distance graphs under `part_map` (by default
    the built-in map for the sample's joint count)."""
    padded = pad_sample(sample, spm_cfg.T)
    if graphs is None:
        part_map = part_map or builtin_part_map(padded.person_a.J)
        graphs = build_interaction_graphs(padded, part_map, spm_cfg, k)
    return PreparedSample(padded, graphs)


def prepare_dataset(samples, part_map, spm_cfg, k):
    """Pad to the tokenizer frame count and precompute distance graphs."""
    return [prepare_sample(s, spm_cfg, k, part_map) for s in samples]


def corrupt(prepared, sigma, rng_seed, part_map, spm_cfg, k):
    """Joint-noise a prepared sample and rebuild its graphs from the noisy coords."""
    if sigma == 0:
        return prepared
    s = prepared.sample
    base = tuple(rng_seed) if isinstance(rng_seed, (tuple, list)) else (rng_seed,)
    noisy = InteractionSample(add_joint_noise(s.person_a, sigma, rng_seed=base + (0,)),
                              add_joint_noise(s.person_b, sigma, rng_seed=base + (1,)),
                              label=s.label, source_id=s.source_id)
    return prepare_sample(noisy, spm_cfg, k, part_map)


@dataclass
class TrainResult:
    model: object
    metrics: list          # (epoch, lr, train_loss, train_acc, val_acc)
    steps: int
    log_lines: list = field(default_factory=list)

    def best_val_acc(self):
        vals = [row[4] for row in self.metrics if not math.isnan(row[4])]
        return max(vals) if vals else float("nan")


def _grad_report(model):
    rows = []
    for name, p in sorted(model.named_parameters().items()):
        gnorm = float(np.linalg.norm(p.grad)) if p.grad is not None else 0.0
        rows.append(f"  {name}: |w|={float(np.linalg.norm(p.data)):.3e} |g|={gnorm:.3e}")
    return "\n".join(rows)


def _format_row(row):
    epoch, lr, loss, tacc, vacc = row
    return f"{epoch}\t{lr:.10g}\t{loss:.10g}\t{tacc:.10g}\t{vacc:.10g}"


def train(model, train_set, cfg, val_set=None, log_fn=None):
    """SGD/Nesterov training over prepared samples; deterministic per seed.

    Emits one metric row per epoch: (epoch, lr, train_loss, train_acc,
    val_acc), with val_acc = nan when no validation set is given.
    """
    if not train_set:
        raise ConfigError("training set is empty")
    names = sorted(model.named_parameters())
    params = [model.named_parameters()[n] for n in names]
    velocities = [np.zeros_like(p.data) for p in params]
    shuffle_rng = np.random.default_rng((cfg.seed, 0xA))
    part_map = model.part_map
    spm_cfg = model.cfg.spm
    k = model.cfg.dsig.k
    metrics = []
    log_lines = []
    steps = 0
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = shuffle_rng.permutation(len(train_set))
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            model.zero_grads()
            total = None
            for idx in batch_idx:
                prepared = train_set[idx]
                if cfg.noise_sigma_m > 0:
                    prepared = corrupt(prepared, cfg.noise_sigma_m,
                                       (cfg.seed, 0xB, epoch, int(idx)),
                                       part_map, spm_cfg, k)
                drop_rng = None
                if model.cfg.dropout > 0:
                    drop_rng = np.random.default_rng((cfg.seed, 0xD, epoch, int(idx)))
                try:
                    loss, logits = model.loss(prepared.sample, prepared.graphs,
                                              dropout_rng=drop_rng)
                except NumericError as exc:
                    raise TrainingDiverged(
                        f"non-finite forward at epoch {epoch}, step {steps}: {exc}\n"
                        + _grad_report(model)) from None
                epoch_correct += int(int(logits.data.argmax()) == prepared.label)
                epoch_loss += float(loss.data)
                total = loss if total is None else total + loss
            batch_loss = total * (1.0 / len(batch_idx))
            if not np.isfinite(batch_loss.data):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, step {steps}\n" + _grad_report(model))
            batch_loss.backward()
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            T.sgd_nesterov_step(params, grads, velocities, lr=lr, momentum=cfg.momentum)
            steps += 1
        train_loss = epoch_loss / len(train_set)
        train_acc = epoch_correct / len(train_set)
        val_acc = evaluate(model, val_set).accuracy if val_set else float("nan")
        row = (epoch, lr, train_loss, train_acc, val_acc)
        metrics.append(row)
        line = _format_row(row)
        log_lines.append(line)
        if log_fn is not None:
            log_fn(line)
    return TrainResult(model=model, metrics=metrics, steps=steps, log_lines=log_lines)


@dataclass
class EvalReport:
    accuracy: float
    per_class: np.ndarray
    confusion: np.ndarray  # rows are true classes

    def text(self, class_names=None):
        lines = [f"accuracy {self.accuracy:.4f}"]
        for c, acc in enumerate(self.per_class):
            name = class_names[c] if class_names else f"class {c}"
            lines.append(f"  {name}: {acc:.4f}")
        lines.append("confusion (rows = true):")
        for row in self.confusion:
            lines.append("  " + " ".join(f"{int(v):4d}" for v in row))
        return "\n".join(lines)


def evaluate(model, dataset, noise_sigma_m=0.0, noise_seed=0):
    """Argmax-logit classification metrics over a prepared dataset, from
    forwards that record no autodiff tape."""
    if not dataset:
        raise ConfigError("evaluation set is empty")
    c = model.cfg.num_classes
    confusion = np.zeros((c, c))
    with model.inference():
        for idx, prepared in enumerate(dataset):
            if not 0 <= prepared.label < c:
                raise ConfigError(f"label {prepared.label} outside checkpoint's {c} classes")
            if noise_sigma_m > 0:
                prepared = corrupt(prepared, noise_sigma_m, (noise_seed, 0xC, idx),
                                   model.part_map, model.cfg.spm, model.cfg.dsig.k)
            logits = model.forward(prepared.sample, prepared.graphs)
            confusion[prepared.label, int(logits.data.argmax())] += 1
    totals = confusion.sum(axis=1)
    per_class = np.divide(np.diag(confusion), totals, out=np.zeros(c), where=totals > 0)
    return EvalReport(accuracy=float(np.trace(confusion) / confusion.sum()),
                      per_class=per_class, confusion=confusion)
