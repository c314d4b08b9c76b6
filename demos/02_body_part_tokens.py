"""From a raw skeleton clip to a body-part-time token sequence.

Partition the 15 joints into five parts, resize each part's joint axis to a
common width, and project sliding temporal patches into embeddings. Token
(t, p) sits at row t*B + p, so the graph modules can index the same way.
"""

import numpy as np

import igformer.tensor as T
from igformer.model import trunc_normal
from igformer.skeleton import builtin_part_map, pad_repeat
from igformer.spm import SpmConfig, add_positional, partition, spm_forward
from igformer.training import SynthSpec, synth_generate

sample = synth_generate(SynthSpec(class_id=2, T=48, seed=5))  # a handshake
seq = pad_repeat(sample.person_a, 64)
part_map = builtin_part_map(15)

cfg = SpmConfig(P=8, stride=8, padding=0, T=64)
print(f"geometry: T={cfg.T} P={cfg.P} stride={cfg.stride} padding={cfg.padding}")
print(f"temporal steps L = {cfg.L}, tokens M = B*L = {cfg.M(part_map.B)}")

blocks = partition(seq, part_map)
for (name, idx), block in zip(part_map.parts, blocks):
    print(f"  part {name:10s} joints {idx} -> block {block.shape}")

D = 16  # token width, carried by the projection's shape
rng = np.random.default_rng(0)
kernel = T.Tensor(trunc_normal(rng, (D, cfg.P, cfg.P, 3), std=0.05))
bias = T.Tensor(np.zeros(D))
bpt = spm_forward(seq, part_map, cfg, kernel, bias)
print(f"BPT tokens: {bpt.tokens.shape} (time-major)")

# the default geometry reproduces the reference token count
reference = SpmConfig()
print(f"reference geometry: L = {reference.L}, M = {reference.M(5)}  (25 and 125)")

# a learnable positional table is shared by both persons
posenc = T.Tensor(trunc_normal(rng, bpt.tokens.shape))
encoded = add_positional(bpt, posenc)
print(f"after positional encoding: {encoded.tokens.shape}, "
      f"token rms {encoded.tokens.data.std():.3f}")
