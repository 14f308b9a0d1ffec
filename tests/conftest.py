import os
import sys
from pathlib import Path

import pytest

# make oracles importable, and the package under test importable here and in
# the CLI subprocesses the tests start, without an install or PYTHONPATH
_TESTS = Path(__file__).parent
_SRC = str(_TESTS.parent / "src")
sys.path.insert(0, str(_TESTS))
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

from homsample import Graph, GraphSignal, karate_manifest_path, load_dataset


@pytest.fixture(scope="session")
def karate():
    g, s, _ = load_dataset(karate_manifest_path())
    return g, s


@pytest.fixture
def triangle():
    """K3 with labels (a, a, b)."""
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    s = GraphSignal.from_labels([0, 0, 1], 2)
    return g, s


@pytest.fixture
def star():
    """K_{1,3}: center 0 labeled a, leaves labeled (a, b, b)."""
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    s = GraphSignal.from_labels([0, 0, 1, 1], 2)
    return g, s


@pytest.fixture
def path3():
    """P3 with labels (a, a, b)."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    s = GraphSignal.from_labels([0, 0, 1], 2)
    return g, s
