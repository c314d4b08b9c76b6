"""Shared fixtures: the tiny INI config the CLI-level tests run with."""

import pytest

# D=8, h=2, N=1 at T=16 (L=4, M=20); two epochs of batch 4
TINY_CONFIG = """
[spm]
P = 4
stride = 4
padding = 0
T = 16

[dsig]
k = 5

[model]
num_classes = 4
D = 8
h = 2
N = 1

[train]
epochs = 2
batch_size = 4
milestones =
seed = 0
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return str(path)
