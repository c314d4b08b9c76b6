"""Inference path: models built straight from checkpoint arrays, and forwards
that record no autodiff tape."""

import hashlib
import io
import re

import numpy as np
import pytest

from igformer import attention, cli, config as cfgmod, model as M, training as tr
from igformer.errors import ConfigError
from igformer.graphs import build_interaction_graphs
from igformer.skeleton import InteractionSample, SkeletonSequence, builtin_part_map
from igformer.spm import SpmConfig


def tiny_cfg(**kw):
    defaults = dict(num_classes=3, D=8, h=2, N=2,
                    spm=SpmConfig(P=4, stride=4, padding=0, T=16))
    defaults.update(kw)
    return M.ModelConfig(**defaults)


VARIANTS = {
    "default": {},
    "tied": {"tie_person_branches": True},
}

# sha256 of save_checkpoint(init_params(cfg, seed=7), "pin"): "default" recorded
# before the structure walk was split out of the initializer, "tied" before the
# per-part projection option was removed. Any change to the draw order, the
# initializers or the registry order changes these bytes.
PINNED_INIT_SHA256 = {
    "default": "1cdd2a1ee9cf3255f0a2e5739551292eb29c24f2bdd4ccf52b5c1754f50915b1",
    "tied": "1c3c3c1b25790fe706d3e87855086e27e5467e1d54833230233a4c5bd7529904",
}


def sample_with_graphs(cfg, seed=0, label=0):
    rng = np.random.default_rng(seed)
    sample = InteractionSample(SkeletonSequence(rng.normal(size=(cfg.spm.T, 15, 3))),
                               SkeletonSequence(rng.normal(size=(cfg.spm.T, 15, 3))),
                               label=label)
    return sample, build_interaction_graphs(sample, builtin_part_map(15), cfg.spm,
                                            k=cfg.dsig.k)


def full_config(model_cfg):
    """A FullConfig whose architecture digest describes `model_cfg`."""
    spm = model_cfg.spm
    text = (f"[spm]\nP = {spm.P}\nstride = {spm.stride}\npadding = {spm.padding}\n"
            f"T = {spm.T}\n"
            f"[model]\nnum_classes = {model_cfg.num_classes}\nD = {model_cfg.D}\n"
            f"h = {model_cfg.h}\nN = {model_cfg.N}\n"
            f"tie_person_branches = {model_cfg.tie_person_branches}\n")
    return cfgmod.parse_config(text)


def write_checkpoint(tmp_path, cfg, seed=3):
    model = M.init_params(cfg.model, seed=seed, part_map=builtin_part_map(15))
    blob = M.save_checkpoint(model, cfgmod.architecture_digest(cfg))
    path = tmp_path / "model.igfc"
    path.write_bytes(blob)
    return path, blob


@pytest.mark.parametrize("variant", sorted(PINNED_INIT_SHA256))
def test_init_draw_order_pinned(variant):
    blob = M.save_checkpoint(M.init_params(tiny_cfg(**VARIANTS[variant]), seed=7), "pin")
    assert hashlib.sha256(blob).hexdigest() == PINNED_INIT_SHA256[variant]


def test_load_model_draws_no_random_numbers(tmp_path, monkeypatch):
    cfg = full_config(tiny_cfg())
    path, _ = write_checkpoint(tmp_path, cfg)

    def no_draws(*args, **kwargs):
        raise AssertionError("random init while loading a checkpoint")

    monkeypatch.setattr(M, "trunc_normal", no_draws)
    monkeypatch.setattr(M.np.random, "default_rng", no_draws)
    model = cli._load_model(path, cfg, builtin_part_map(15))
    assert len(model.named_parameters()) > 0


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_load_model_registry_equals_checkpoint(tmp_path, variant):
    cfg = full_config(tiny_cfg(**VARIANTS[variant]))
    path, blob = write_checkpoint(tmp_path, cfg)
    _, arrays = M.load_checkpoint(io.BytesIO(blob))
    model = cli._load_model(path, cfg, builtin_part_map(15))
    registry = model.named_parameters()
    assert list(registry) == list(arrays)
    for name, t in registry.items():
        assert np.array_equal(t.data, arrays[name]), name
        assert t.requires_grad, name
    assert M.save_checkpoint(model, cfgmod.architecture_digest(cfg)) == blob
    for itb in model.itbs:
        tied = cfg.model.tie_person_branches
        assert (itb.out_n is itb.out_m) == tied
        assert (itb.gi.wn is itb.gi.wm) == tied


def test_restored_logits_equal_initialized_ones():
    cfg = tiny_cfg()
    fresh = M.init_params(cfg, seed=4)
    _, arrays = M.load_checkpoint(io.BytesIO(M.save_checkpoint(fresh, "d")))
    restored = M.restore_params(cfg, arrays)
    sample, graphs = sample_with_graphs(cfg)
    assert np.array_equal(fresh.forward(sample, graphs).data,
                          restored.forward(sample, graphs).data)


@pytest.mark.parametrize("edit, message", [
    (lambda a: a.pop("head.b"), "missing ['head.b']"),
    (lambda a: a.update({"head.c": np.zeros(3)}), "extra ['head.c']"),
    (lambda a: a.update({"head.b": np.zeros(4)}), "head.b: checkpoint shape (4,)"),
])
def test_restore_rejects_misfit_arrays(edit, message):
    cfg = tiny_cfg()
    _, arrays = M.load_checkpoint(io.BytesIO(M.save_checkpoint(M.init_params(cfg, seed=0), "d")))
    edit(arrays)
    with pytest.raises(ConfigError, match=re.escape(message)):
        M.restore_params(cfg, arrays)


@pytest.mark.parametrize("mode", attention.MODES)
def test_tapeless_logits_bit_equal_to_taped(mode):
    cfg = tiny_cfg(mode=mode)
    model = M.init_params(cfg, seed=5)
    sample, graphs = sample_with_graphs(cfg, seed=1)
    taped = model.forward(sample, graphs)
    assert taped.requires_grad and taped._parents
    with model.inference():
        free = model.forward(sample, graphs)
    assert np.array_equal(free.data, taped.data)
    assert not free.requires_grad and free._parents == () and free._backward_fn is None


def test_inference_restores_flags_on_error():
    model = M.init_params(tiny_cfg(), seed=0)
    registry = model.named_parameters()
    registry["head.b"].requires_grad = False  # a frozen parameter stays frozen
    before = {name: t.requires_grad for name, t in registry.items()}
    with pytest.raises(RuntimeError):
        with model.inference():
            assert not any(t.requires_grad for t in registry.values())
            raise RuntimeError("forward failed")
    assert {name: t.requires_grad for name, t in registry.items()} == before


def test_evaluate_restores_requires_grad():
    cfg = tiny_cfg()
    model = M.init_params(cfg, seed=0)
    data = [tr.PreparedSample(*sample_with_graphs(cfg, seed=s, label=s % 3)) for s in range(3)]
    registry = model.named_parameters()
    registry["spm.posenc"].requires_grad = False
    before = {name: t.requires_grad for name, t in registry.items()}
    seen = []

    def forward(sample, graphs):
        seen.append([t.requires_grad for t in registry.values()])
        return type(model).forward(model, sample, graphs)

    model.forward = forward
    tr.evaluate(model, data)
    assert len(seen) == 3 and not any(any(flags) for flags in seen)
    assert {name: t.requires_grad for name, t in registry.items()} == before

    def failing(sample, graphs):
        raise FloatingPointError("forward failed")

    model.forward = failing
    with pytest.raises(FloatingPointError):
        tr.evaluate(model, data)
    assert {name: t.requires_grad for name, t in registry.items()} == before


# eval.txt of the run below, recorded when eval still drew a random init and
# recorded a tape on every forward
PINNED_EVAL_TXT = """accuracy 0.5000
  approach: 0.5000
  depart: 0.5000
  right_hand_shake: 0.5000
  right_leg_kick: 0.5000
confusion (rows = true):
     1    0    0    1
     0    1    0    1
     1    0    1    0
     0    1    0    1
"""


def test_eval_txt_unchanged(tmp_path, cfg_path):
    common = ["--config", cfg_path]
    assert cli.main(["prepare", "--format", "synth", "--count", "8", "--frames", "16",
                     "--out", str(tmp_path / "data"), "--seed", "1", *common]) == 0
    assert cli.main(["train", "--data", str(tmp_path / "data"), "--out",
                     str(tmp_path / "run"), "--seed", "3", *common]) == 0
    assert cli.main(["eval", "--data", str(tmp_path / "data"), "--checkpoint",
                     str(tmp_path / "run" / "checkpoint.igfc"), "--noise-sigma", "0.05",
                     "--out", str(tmp_path / "eval"), *common]) == 0
    assert (tmp_path / "eval" / "eval.txt").read_text(encoding="utf-8") == PINNED_EVAL_TXT
