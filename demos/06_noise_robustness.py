"""Accuracy under joint-position noise.

Train a small model on clean synthetic clips, then evaluate the same
validation set with zero-mean Gaussian noise added to every coordinate
(graphs are rebuilt from the noisy joints). Small noise barely registers;
accuracy falls off as the noise approaches limb scale.
"""

from igformer.graphs import DistanceGraphConfig
from igformer.model import ModelConfig, init_params
from igformer.skeleton import builtin_part_map
from igformer.spm import SpmConfig
from igformer.training import (TrainConfig, evaluate, make_synth_dataset,
                               prepare_dataset, train)

spm = SpmConfig(P=8, stride=8, padding=0, T=64)
cfg = ModelConfig(num_classes=4, D=24, h=4, N=1, spm=spm,
                  dsig=DistanceGraphConfig(k=8))
part_map = builtin_part_map(15)

train_set = prepare_dataset(make_synth_dataset(120, T=64, seed=1), part_map, spm, 8)
val_set = prepare_dataset(make_synth_dataset(48, T=64, seed=2), part_map, spm, 8)

model = init_params(cfg, seed=0)
result = train(model, train_set,
               TrainConfig(lr=0.02, epochs=40, batch_size=16, milestones=(30,), seed=3),
               val_set=val_set)
print(f"trained to val acc {result.best_val_acc():.3f}\n")

print("sigma (cm)   accuracy")
for sigma_cm in (0, 1, 2, 4, 8, 16, 32):
    report = evaluate(model, val_set, noise_sigma_m=sigma_cm / 100.0, noise_seed=7)
    print(f"{sigma_cm:9d}   {report.accuracy:.3f}")
