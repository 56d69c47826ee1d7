# sparseloc first: importing it sets one BLAS thread, which numpy reads
# only when it first loads
from sparseloc import MinkLoc, ModelConfig
from sparseloc.sparse import pack_coords

import numpy as np
import pytest


TINY_CFG = dict(conv0_ch=2, conv1_ch=2, conv2_ch=2, conv3_ch=2,
                descriptor_dim=3, quantization_step=0.1)

# verdict lines recorded by the acceptance suite, replayed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def coord_rows(tensor, coords) -> np.ndarray:
    """Row of ``tensor`` holding each (batch, x, y, z) row of ``coords``,
    -1 where ``tensor`` has no such voxel."""
    keys = tensor.keys()
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    q = pack_coords(np.asarray(coords, dtype=np.int64).reshape(-1, 4))
    pos = np.minimum(np.searchsorted(skeys, q), len(skeys) - 1)
    return np.where(skeys[pos] == q, order[pos], -1)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_model():
    """A minimal backbone: fast enough for per-test forward/backward passes."""
    return MinkLoc(ModelConfig(**TINY_CFG), seed=0)


@pytest.fixture(scope="session")
def synth_root(tmp_path_factory):
    """A small synthetic dataset shared across tests (read-only)."""
    from sparseloc import synth_dataset
    root = tmp_path_factory.mktemp("synth")
    synth_dataset(str(root), n_places=4, n_revisits=3, geometry_seed=0,
                  points_per_cloud=256)
    return str(root)
