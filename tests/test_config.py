"""Config files: the keys come from the config dataclasses, render and parse
back unchanged, and pass the dataclasses' checks also when set by override."""

from dataclasses import fields
from pathlib import Path

import pytest

from igformer import config as cfgmod
from igformer.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {
    "desk": (ROOT / "configs" / "synth-tiny.ini").read_text(encoding="utf-8"),
    "reference": "",
    "ntu-ingest": "[model]\nD = 32\nh = 4\nN = 2\n",
}


def test_every_dataclass_field_is_a_config_key():
    sections = cfgmod.to_sections(cfgmod.default_config())
    for section, cls in cfgmod.SECTIONS.items():
        want = [f.name for f in fields(cls) if f.name not in cfgmod.SECTIONS]
        assert list(sections[section]) == want, section
    assert sum(len(kv) for kv in sections.values()) == 21


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rendered_config_parses_back(name):
    cfg = cfgmod.parse_config(CONFIGS[name])
    again = cfgmod.parse_config(cfgmod.config_text(cfg))
    assert cfgmod.to_sections(again) == cfgmod.to_sections(cfg)


# digests of the keys in this layout; a key added to or removed from the spm
# or model section changes them, and checkpoints of older layouts are rejected
@pytest.mark.parametrize("name, digest", [("desk", "952d2b458153a3c9"),
                                          ("reference", "d1a6a1f35ff24767")])
def test_architecture_digest_pinned(name, digest):
    assert cfgmod.architecture_digest(cfgmod.parse_config(CONFIGS[name])) == digest


@pytest.mark.parametrize("text", ["[spm]\nper_part_conv = true\n", "[model]\nffn_mult = 4\n"])
def test_deleted_keys_rejected(text):
    with pytest.raises(ConfigError, match="unknown key"):
        cfgmod.parse_config(text)


def test_overrides_replace_file_values():
    cfg = cfgmod.parse_config(CONFIGS["desk"], overrides={"model": {"N": 1},
                                                          "dsig": {"k": 3}})
    assert (cfg.model.N, cfg.dsig.k, cfg.model.D) == (1, 3, 32)


@pytest.mark.parametrize("overrides", [{"model": {"N": 0}}, {"model": {"N": -1}},
                                       {"train": {"noise_sigma_m": -0.5}},
                                       {"model": {"mode": "bogus"}}])
def test_overrides_pass_the_dataclass_checks(overrides):
    with pytest.raises(ConfigError):
        cfgmod.parse_config(CONFIGS["desk"], overrides=overrides)


def test_zero_neighbors_rejected():
    with pytest.raises(ConfigError, match="k=0"):
        cfgmod.parse_config("[dsig]\nk = 0\n")
