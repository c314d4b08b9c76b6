"""Trainer: generator properties, LR schedule, optimizer closed form,
determinism, divergence handling, evaluation metrics."""

import contextlib

import numpy as np
import pytest

import igformer.tensor as T
from igformer import training as tr
from igformer.errors import ConfigError, TrainingDiverged
from igformer.graphs import DistanceGraphConfig
from igformer.model import ModelConfig, init_params
from igformer.skeleton import builtin_part_map
from igformer.spm import SpmConfig

TINY_SPM = SpmConfig(P=8, stride=8, padding=0, T=32)


def tiny_model(seed=0, **kw):
    defaults = dict(num_classes=4, D=16, h=2, N=1, spm=TINY_SPM,
                    dsig=DistanceGraphConfig(k=5))
    defaults.update(kw)
    return init_params(ModelConfig(**defaults), seed=seed)


def centroid_distance(sample, frame):
    a = sample.person_a.coords[frame].mean(axis=0)
    b = sample.person_b.coords[frame].mean(axis=0)
    return float(np.linalg.norm(a - b))


class TestSynthGenerator:
    def test_approach_closes_distance(self):
        for seed in range(8):
            s = tr.synth_generate(tr.SynthSpec(class_id=0, T=48, seed=seed))
            assert centroid_distance(s, 47) < centroid_distance(s, 0)

    def test_depart_opens_distance(self):
        for seed in range(8):
            s = tr.synth_generate(tr.SynthSpec(class_id=1, T=48, seed=seed))
            assert centroid_distance(s, 47) > centroid_distance(s, 0)

    def test_depart_is_time_reversed_approach(self):
        spec_a = tr.SynthSpec(class_id=0, T=32, seed=123)
        spec_d = tr.SynthSpec(class_id=1, T=32, seed=123)
        a = tr.synth_generate(spec_a)
        d = tr.synth_generate(spec_d)
        assert np.array_equal(d.person_a.coords, a.person_a.coords[::-1])
        assert np.array_equal(d.person_b.coords, a.person_b.coords[::-1])

    def test_deterministic(self):
        spec = tr.SynthSpec(class_id=2, T=20, seed=9)
        s1, s2 = tr.synth_generate(spec), tr.synth_generate(spec)
        assert np.array_equal(s1.person_a.coords, s2.person_a.coords)
        assert np.array_equal(s1.person_b.coords, s2.person_b.coords)

    def test_handshake_moves_right_arms(self):
        # articulation relative to the torso, so the shared drift cancels
        s = tr.synth_generate(tr.SynthSpec(class_id=2, T=40, seed=4, noise=0.0))
        rel = s.person_a.coords - s.person_a.coords[:, 2:3, :]
        arm = rel[:, [6, 7, 8], :]
        leg = rel[:, [12, 13, 14], :]
        assert arm.std(axis=0).max() > 3 * leg.std(axis=0).max()

    def test_kick_moves_only_person_a_leg(self):
        s = tr.synth_generate(tr.SynthSpec(class_id=3, T=40, seed=5, noise=0.0))
        rel_a = s.person_a.coords - s.person_a.coords[:, 2:3, :]
        rel_b = s.person_b.coords - s.person_b.coords[:, 2:3, :]
        leg_a = rel_a[:, [12, 13, 14], :]
        leg_b = rel_b[:, [12, 13, 14], :]
        assert leg_a.std(axis=0).max() > 3 * leg_b.std(axis=0).max()

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            tr.SynthSpec(class_id=9)

    def test_balanced_dataset(self):
        data = tr.make_synth_dataset(40, classes=4, T=16, seed=0)
        labels = [s.label for s in data]
        assert all(labels.count(c) == 10 for c in range(4))


class TestLrSchedule:
    def test_paper_schedule_values(self):
        cfg = tr.TrainConfig()
        assert tr.lr_at(0, cfg) == 0.01
        assert tr.lr_at(29, cfg) == 0.01
        assert abs(tr.lr_at(30, cfg) - 0.001) < 1e-15
        assert abs(tr.lr_at(40, cfg) - 0.0001) < 1e-16
        assert abs(tr.lr_at(59, cfg) - 0.0001) < 1e-16

    def test_epoch_bounds(self):
        with pytest.raises(ConfigError):
            tr.lr_at(60, tr.TrainConfig())

    def test_milestone_validation(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(milestones=(40, 30))
        with pytest.raises(ConfigError):
            tr.TrainConfig(milestones=(30, 70), epochs=60)


class TestNesterovClosedForm:
    def test_five_step_quadratic_sequence(self):
        # loss 0.5*w^2 so g = w; literal transcription of the update rule
        w_ref, v_ref = 1.0, 0.0
        seq = []
        for _ in range(5):
            g = w_ref
            v_ref = 0.9 * v_ref + g
            w_ref = w_ref - 0.1 * (g + 0.9 * v_ref)
            seq.append(w_ref)
        assert abs(seq[0] - 0.81) < 1e-12
        assert abs(seq[1] - 0.5751) < 1e-12
        w = np.array([1.0])
        v = np.zeros(1)
        for i in range(5):
            T.sgd_nesterov_step([w], [w.copy()], [v], lr=0.1, momentum=0.9)
            assert w[0] == seq[i]


def prepared_synth(count, spm=TINY_SPM, k=5, classes=4, seed=0):
    data = tr.make_synth_dataset(count, classes=classes, T=spm.T, seed=seed)
    return tr.prepare_dataset(data, builtin_part_map(15), spm, k)


class TestTrainLoop:
    def test_step_count(self):
        model = tiny_model()
        data = prepared_synth(4)
        cfg = tr.TrainConfig(epochs=1, batch_size=2, milestones=())
        result = tr.train(model, data, cfg)
        assert result.steps == 2

    def test_loss_decreases_on_repeated_batch(self):
        model = tiny_model(seed=3)
        data = prepared_synth(4)
        cfg = tr.TrainConfig(lr=0.005, epochs=2, batch_size=4, milestones=())
        result = tr.train(model, data, cfg)
        assert result.metrics[1][2] < result.metrics[0][2]

    def test_metric_log_deterministic(self):
        data = prepared_synth(8)
        cfg = tr.TrainConfig(epochs=2, batch_size=4, seed=5, milestones=())
        r1 = tr.train(tiny_model(seed=1), data, cfg)
        r2 = tr.train(tiny_model(seed=1), data, cfg)
        assert r1.log_lines == r2.log_lines

    def test_log_line_format(self):
        data = prepared_synth(4)
        cfg = tr.TrainConfig(epochs=1, batch_size=4, milestones=())
        result = tr.train(tiny_model(), data, cfg, val_set=data)
        fields = result.log_lines[0].split("\t")
        assert len(fields) == 5
        assert fields[0] == "0"
        assert float(fields[1]) == 0.01

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_nan_abort_reports_norms(self):
        model = tiny_model(seed=2)
        # poison one parameter so the forward pass blows up
        model.named_parameters()["head.w"].data[:] = 1e308
        data = prepared_synth(4)
        cfg = tr.TrainConfig(epochs=1, batch_size=4, milestones=())
        with pytest.raises(TrainingDiverged, match="head.w"):
            tr.train(model, data, cfg)

    @pytest.mark.xfail(strict=True, raises=TrainingDiverged,
                       reason="SGD at lr 0.01 diverges at D=32, M=125 (NaN at epoch 10 "
                              "for seed 6); the fault is open")
    def test_desk_width_reference_geometry_trains_12_epochs(self):
        # D=32, h=4, N=2 with the default tokenizer (P=16, stride 10,
        # padding 2, T=256, so M=125), 16 synthetic clips in one batch
        cfg = ModelConfig(num_classes=4, D=32, h=4, N=2)
        part_map = builtin_part_map(15)
        clips = tr.make_synth_dataset(16, T=cfg.spm.T, seed=6)
        data = tr.prepare_dataset(clips, part_map, cfg.spm, cfg.dsig.k)
        model = init_params(cfg, seed=6, part_map=part_map)
        tr.train(model, data, tr.TrainConfig(epochs=12, batch_size=16, milestones=(), seed=6))

    def test_empty_training_set(self):
        with pytest.raises(ConfigError):
            tr.train(tiny_model(), [], tr.TrainConfig(milestones=()))

    def test_train_noise_changes_run(self):
        data = prepared_synth(8)
        cfg0 = tr.TrainConfig(epochs=1, batch_size=8, milestones=())
        cfg1 = tr.TrainConfig(epochs=1, batch_size=8, milestones=(), noise_sigma_m=0.05)
        r0 = tr.train(tiny_model(seed=1), data, cfg0)
        r1 = tr.train(tiny_model(seed=1), data, cfg1)
        assert r0.log_lines != r1.log_lines


class _StubModel:
    """Configurable predictor for evaluation tests."""

    def __init__(self, num_classes, predict):
        from types import SimpleNamespace
        self.cfg = SimpleNamespace(num_classes=num_classes,
                                   spm=TINY_SPM, dsig=DistanceGraphConfig(k=5))
        self.part_map = builtin_part_map(15)
        self._predict = predict

    def inference(self):
        return contextlib.nullcontext(self)

    def forward(self, sample, graphs):
        logits = np.zeros((1, self.cfg.num_classes))
        logits[0, self._predict(sample)] = 1.0
        return T.Tensor(logits)


class TestEvaluate:
    def test_perfect_predictor(self):
        data = prepared_synth(8)
        model = _StubModel(4, predict=lambda s: s.label)
        report = tr.evaluate(model, data)
        assert report.accuracy == 1.0
        assert np.array_equal(report.confusion, np.diag([2, 2, 2, 2]))

    def test_constant_predictor_base_rate(self):
        data = prepared_synth(8)
        model = _StubModel(4, predict=lambda s: 0)
        report = tr.evaluate(model, data)
        assert report.accuracy == 0.25

    def test_accuracy_equals_trace_over_total(self):
        data = prepared_synth(12)
        model = _StubModel(4, predict=lambda s: (s.label * 2) % 4)
        report = tr.evaluate(model, data)
        assert report.accuracy == np.trace(report.confusion) / report.confusion.sum()

    def test_empty_dataset(self):
        with pytest.raises(ConfigError):
            tr.evaluate(_StubModel(4, lambda s: 0), [])

    def test_eval_noise_deterministic(self):
        data = prepared_synth(4)
        model = tiny_model(seed=4)
        r1 = tr.evaluate(model, data, noise_sigma_m=0.02, noise_seed=3)
        r2 = tr.evaluate(model, data, noise_sigma_m=0.02, noise_seed=3)
        assert np.array_equal(r1.confusion, r2.confusion)


class TestDropoutFlag:
    def test_dropout_changes_training_but_not_eval(self):
        data = prepared_synth(8)
        cfg = tr.TrainConfig(epochs=1, batch_size=8, milestones=(), seed=5)
        base = tiny_model(seed=1)
        r0 = tr.train(base, data, cfg)
        dropped = tiny_model(seed=1, dropout=0.3)
        r1 = tr.train(dropped, data, cfg)
        assert r0.log_lines != r1.log_lines
        # evaluation never applies dropout: repeated evals agree bitwise
        e1 = tr.evaluate(dropped, data)
        e2 = tr.evaluate(dropped, data)
        assert np.array_equal(e1.confusion, e2.confusion)

    def test_dropout_deterministic_per_seed(self):
        data = prepared_synth(8)
        cfg = tr.TrainConfig(epochs=1, batch_size=8, milestones=(), seed=5)
        r1 = tr.train(tiny_model(seed=1, dropout=0.3), data, cfg)
        r2 = tr.train(tiny_model(seed=1, dropout=0.3), data, cfg)
        assert r1.log_lines == r2.log_lines
