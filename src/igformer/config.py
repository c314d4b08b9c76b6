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
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .graphs import DistanceGraphConfig
from .model import ModelConfig
from .spm import SpmConfig
from .training import TrainConfig

TOOL_VERSION = "0.1.0"


@dataclass
class FullConfig:
    spm: SpmConfig = field(default_factory=SpmConfig)
    dsig: DistanceGraphConfig = field(default_factory=DistanceGraphConfig)
    model: ModelConfig = None
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.model is None:
            self.model = ModelConfig(spm=self.spm, dsig=self.dsig)


SECTIONS = {"spm": SpmConfig, "dsig": DistanceGraphConfig, "model": ModelConfig,
            "train": TrainConfig}
# value kind of each field annotation; a tuple field holds ints
_KINDS = {"int": int, "float": float, "bool": bool, "str": str, "tuple": "int_list"}
# {section: {key: kind}}: every field of the section's dataclass but the
# nested sections (ModelConfig holds the spm and dsig configs)
_KEYS = {section: {f.name: _KINDS[f.type] for f in fields(cls) if f.name not in SECTIONS}
         for section, cls in SECTIONS.items()}


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


def parse_config(text, path="<config>", overrides=None):
    """Build a FullConfig from INI-style text; unknown keys are errors.
    `overrides` ({section: {key: value}}, e.g. from command-line flags)
    replace values of the text before the dataclasses validate them."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (P vs p)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    values = {section: {} for section in SECTIONS}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        keys = _KEYS[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            values[section][key] = _convert(raw, keys[key], f"{path} [{section}] {key}")
    for section, kv in (overrides or {}).items():
        values[section].update(kv)
    spm = SpmConfig(**values["spm"])
    dsig = DistanceGraphConfig(**values["dsig"])
    model = ModelConfig(spm=spm, dsig=dsig, **values["model"])
    return FullConfig(spm=spm, dsig=dsig, model=model, train=TrainConfig(**values["train"]))


def load_config(path, overrides=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), path=str(path), overrides=overrides)


def default_config():
    return parse_config("")


def to_sections(cfg):
    """All values materialized, section by section (the manifest's view)."""
    sections = {}
    for section, keys in _KEYS.items():
        obj = getattr(cfg, section)
        sections[section] = {
            key: " ".join(map(str, getattr(obj, key))) if kind == "int_list"
            else getattr(obj, key) for key, kind in keys.items()}
    return sections


def config_text(cfg):
    """Canonical INI rendering of a resolved config."""
    sections = to_sections(cfg)
    out = io.StringIO()
    for section in SECTIONS:
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
