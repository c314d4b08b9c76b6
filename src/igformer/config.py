"""Flat key-value configuration files with sections mirroring the config
dataclasses. An empty file reproduces the reference setup (256-frame padding,
16-wide patches at stride 10 with padding 2, 5 parts, k=15, 3 blocks, 4x FFN,
SGD 0.01 with Nesterov 0.9 decaying at epochs 30 and 40, batch 32), minus the
pretrained initialization this implementation deliberately replaces.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

from .errors import ConfigError
from .graphs import DistanceGraphConfig
from .model import ModelConfig
from .spm import SpmConfig
from .training import TrainConfig

TOOL_VERSION = "0.1.0"


@dataclass
class FullConfig:
    spm: SpmConfig = field(default_factory=lambda: SpmConfig())
    dsig: DistanceGraphConfig = field(default_factory=DistanceGraphConfig)
    model: ModelConfig = None
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.model is None:
            self.model = ModelConfig(spm=self.spm, dsig=self.dsig)


_SCHEMA = {
    "spm": {"P": int, "stride": int, "padding": int, "T": int,
            "per_part_conv": bool},
    "dsig": {"k": int},
    "model": {"num_classes": int, "D": int, "h": int, "N": int, "ffn_mult": int,
              "mode": str, "scale_mode": str, "dropout": float,
              "tie_person_branches": bool},
    "train": {"lr": float, "momentum": float, "milestones": "int_list",
              "lr_decay": float, "epochs": int, "batch_size": int, "seed": int,
              "noise_sigma_m": float},
}


def _convert(raw, kind, where):
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "int_list":
            return tuple(int(v) for v in raw.replace(",", " ").split())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(text, path="<config>"):
    """Build a FullConfig from INI-style text; unknown keys are errors."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (P vs p)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    values = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            values[section][key] = _convert(raw, _SCHEMA[section][key],
                                            f"{path} [{section}] {key}")
    model_kw = values["model"]
    spm = SpmConfig(D=model_kw.get("D", 768), **values["spm"])
    dsig = DistanceGraphConfig(**values["dsig"])
    model = ModelConfig(spm=spm, dsig=dsig, **model_kw)
    train = TrainConfig(**values["train"])
    return FullConfig(spm=spm, dsig=dsig, model=model, train=train)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), path=str(path))


def default_config():
    return parse_config("")


def to_sections(cfg):
    """All values materialized, section by section (the manifest's view)."""
    return {
        "spm": {"P": cfg.spm.P, "stride": cfg.spm.stride, "padding": cfg.spm.padding,
                "T": cfg.spm.T, "per_part_conv": cfg.spm.per_part_conv},
        "dsig": {"k": cfg.dsig.k},
        "model": {"num_classes": cfg.model.num_classes, "D": cfg.model.D,
                  "h": cfg.model.h, "N": cfg.model.N, "ffn_mult": cfg.model.ffn_mult,
                  "mode": cfg.model.mode, "scale_mode": cfg.model.scale_mode,
                  "dropout": cfg.model.dropout,
                  "tie_person_branches": cfg.model.tie_person_branches},
        "train": {"lr": cfg.train.lr, "momentum": cfg.train.momentum,
                  "milestones": " ".join(str(m) for m in cfg.train.milestones),
                  "lr_decay": cfg.train.lr_decay, "epochs": cfg.train.epochs,
                  "batch_size": cfg.train.batch_size, "seed": cfg.train.seed,
                  "noise_sigma_m": cfg.train.noise_sigma_m},
    }


def config_text(cfg):
    """Canonical INI rendering of a resolved config."""
    sections = to_sections(cfg)
    out = io.StringIO()
    for section in ("spm", "dsig", "model", "train"):
        out.write(f"[{section}]\n")
        for key, value in sections[section].items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


def architecture_digest(cfg):
    """Hash of the parameter-shaping sections (spm, model). The dsig and
    train sections may differ between training and later evaluation or
    inspection without invalidating a checkpoint."""
    sections = to_sections(cfg)
    lines = []
    for section in ("spm", "model"):
        for key, value in sorted(sections[section].items()):
            lines.append(f"{section}.{key}={value}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
