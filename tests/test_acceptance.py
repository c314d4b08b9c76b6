"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight fixtures
(trained models) are shared module-wide, so the whole gate stays inside the
stated runtime budgets on one CPU core.
"""

import pytest

from igformer import training as tr
from igformer import verify as vmod
from igformer.config import default_config
from igformer.graphs import DistanceGraphConfig
from igformer.model import ModelConfig, init_params, save_checkpoint
from igformer.skeleton import builtin_part_map
from igformer.spm import SpmConfig

# structural criteria run the `verify` battery's checks, the one implementation
# of each oracle and invariant
BATTERY = dict(vmod.checks())


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


# -- shared trained models (learnability / noise / symmetry criteria) ---------

LEARN_SPM = SpmConfig(P=8, stride=8, padding=0, T=64)


def learn_cfg(mode):
    return ModelConfig(num_classes=4, D=32, h=4, N=2, spm=LEARN_SPM,
                       dsig=DistanceGraphConfig(k=15), mode=mode)


@pytest.fixture(scope="module")
def synth_sets():
    part_map = builtin_part_map(15)
    train_set = tr.prepare_dataset(tr.make_synth_dataset(200, T=64, seed=1),
                                   part_map, LEARN_SPM, 15)
    val_set = tr.prepare_dataset(tr.make_synth_dataset(80, T=64, seed=2),
                                 part_map, LEARN_SPM, 15)
    return train_set, val_set


@pytest.fixture(scope="module")
def trained_full(synth_sets):
    train_set, val_set = synth_sets
    model = init_params(learn_cfg("full"), seed=0)
    result = tr.train(model, train_set, tr.TrainConfig(epochs=60, seed=3),
                      val_set=val_set)
    return model, result


@pytest.fixture(scope="module")
def trained_no_gimsa(synth_sets):
    train_set, val_set = synth_sets
    model = init_params(learn_cfg("no_gimsa"), seed=0)
    result = tr.train(model, train_set, tr.TrainConfig(epochs=60, seed=3),
                      val_set=val_set)
    return model, result


# -- criteria ------------------------------------------------------------------

def test_criterion_configuration_fidelity():
    cfg = default_config()
    assert cfg.spm.T == 256
    assert cfg.spm.P == 16
    assert cfg.spm.stride == 10
    assert cfg.spm.padding == 2
    assert builtin_part_map(25).B == 5 and builtin_part_map(15).B == 5
    assert cfg.spm.L == 25
    assert cfg.spm.M(5) == 125
    assert cfg.dsig.k == 15
    assert cfg.model.N == 3
    assert cfg.model.ffn_width == 4 * cfg.model.D
    assert cfg.train.lr == 0.01
    assert cfg.train.momentum == 0.9
    assert cfg.train.milestones == (30, 40)
    assert cfg.train.batch_size == 32
    # the instantiated system realizes those numbers, not just the config
    small = ModelConfig(num_classes=4, D=8, h=2, spm=SpmConfig())
    model = init_params(small, seed=0, part_map=builtin_part_map(25))
    assert len(model.itbs) == 3
    assert model.posenc.shape == (125, 8)
    assert model.itbs[0].se.ffn.w1.shape == (8, 32)
    report("configuration-fidelity")


def test_criterion_gradient_suite_per_op():
    for check_id, fn in BATTERY.items():
        if check_id.startswith("tensor.gradcheck."):
            fn()  # 20 random instances per differentiable op, rel err < 1e-4
    report("gradient-suite-per-op")


def test_criterion_gradient_suite_end_to_end():
    # tiny model from the criterion: D=8, h=2, N=2, T=32 -> L=8, M=40
    cfg = ModelConfig(num_classes=3, D=8, h=2, N=2,
                      spm=SpmConfig(P=4, stride=4, padding=0, T=32),
                      dsig=DistanceGraphConfig(k=5))
    assert cfg.spm.M(5) == 40
    worst, count = vmod.end_to_end_gradcheck(cfg, model_seed=11, sample_seed=42, tol=1e-4)
    assert worst < 1e-4
    report(f"gradient-suite-end-to-end (worst rel err {worst:.2e} over {count} tensors)")


def test_criterion_dsig_oracle():
    BATTERY["dsig.brute-force-oracle"]()  # 100 samples, both directions
    report("dsig-oracle (100 samples bit-identical)")


def test_criterion_graph_invariants():
    for check_id in ("gimsa.fused-rows-stochastic", "dsig.translation-invariance",
                     "dsig.row-sums-and-tie-inclusion", "gimsa.sdig.elementwise-oracle"):
        BATTERY[check_id]()
    report("graph-invariants")


def test_criterion_symmetry():
    BATTERY["model.person-swap-logits"]()
    BATTERY["model.cross-person-gradient"]()
    report("symmetry")


def test_criterion_learnability(trained_full, trained_no_gimsa):
    _, full_result = trained_full
    _, ablated_result = trained_no_gimsa
    full_best = full_result.best_val_acc()
    ablated_best = ablated_result.best_val_acc()
    assert full_best >= 0.95, f"full mode best val acc {full_best:.3f} < 0.95"
    assert ablated_best < full_best, (
        f"no_gimsa ({ablated_best:.3f}) not strictly below full ({full_best:.3f})")
    report(f"learnability (full {full_best:.3f}, no_gimsa {ablated_best:.3f})")


def test_criterion_noise_robustness_direction(trained_full, synth_sets):
    model, _ = trained_full
    _, val_set = synth_sets
    clean = tr.evaluate(model, val_set, noise_sigma_m=0.0).accuracy
    noisy = tr.evaluate(model, val_set, noise_sigma_m=0.04, noise_seed=17).accuracy
    assert clean >= noisy, f"accuracy rose under 4 cm noise: {clean:.3f} -> {noisy:.3f}"
    report(f"noise-robustness-direction (sigma 0: {clean:.3f} >= sigma 4cm: {noisy:.3f})")


def test_criterion_determinism():
    part_map = builtin_part_map(15)
    spm = SpmConfig(P=8, stride=8, padding=0, T=32)
    data = tr.prepare_dataset(tr.make_synth_dataset(16, T=32, seed=4),
                              part_map, spm, 5)
    cfg = ModelConfig(num_classes=4, D=16, h=2, N=1, spm=spm,
                      dsig=DistanceGraphConfig(k=5))
    tcfg = tr.TrainConfig(epochs=3, batch_size=8, seed=9, milestones=())
    outputs = []
    for _ in range(2):
        model = init_params(cfg, seed=2)
        result = tr.train(model, data, tcfg, val_set=data)
        outputs.append(("\n".join(result.log_lines),
                        save_checkpoint(model, digest="acceptance")))
    assert outputs[0][0] == outputs[1][0], "metric logs differ between identical runs"
    assert outputs[0][1] == outputs[1][1], "checkpoints differ between identical runs"
    report("determinism (byte-identical logs and checkpoints)")
