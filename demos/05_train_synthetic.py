"""End-to-end training on the synthetic interaction classes, desk scale.

Eighty clips and a one-block model, about half a minute: the limb-driven
classes (handshake, kick) separate quickly, while approach/depart — which
only relative motion distinguishes — stay entangled at this scale. The
acceptance suite runs the larger recipe (200 clips, two blocks, 60 epochs)
to full validation accuracy on all four.
"""

from igformer.graphs import DistanceGraphConfig
from igformer.model import ModelConfig, init_params
from igformer.skeleton import builtin_part_map
from igformer.spm import SpmConfig
from igformer.training import (SYNTH_CLASSES, TrainConfig, evaluate,
                               make_synth_dataset, prepare_dataset, train)

spm = SpmConfig(P=8, stride=8, padding=0, T=64)
cfg = ModelConfig(num_classes=4, D=24, h=4, N=1, spm=spm,
                  dsig=DistanceGraphConfig(k=8))
part_map = builtin_part_map(15)

train_set = prepare_dataset(make_synth_dataset(80, T=64, seed=1), part_map, spm, 8)
val_set = prepare_dataset(make_synth_dataset(16, T=64, seed=2), part_map, spm, 8)
print(f"80 train / 16 val clips of classes {SYNTH_CLASSES}, "
      f"M = {train_set[0].graphs.M} tokens")

model = init_params(cfg, seed=0)
tcfg = TrainConfig(lr=0.02, epochs=30, batch_size=8, milestones=(24,), seed=3)
result = train(model, train_set, tcfg, val_set=val_set,
               log_fn=lambda line: print("   " + line))
print(f"{result.steps} optimizer steps; best val acc {result.best_val_acc():.3f}")

report = evaluate(model, val_set)
print(report.text(SYNTH_CLASSES))

# two runs with the same seed produce the same log, byte for byte
rerun = train(init_params(cfg, seed=0), train_set, tcfg, val_set=val_set)
print("rerun log identical:", rerun.log_lines == result.log_lines)
