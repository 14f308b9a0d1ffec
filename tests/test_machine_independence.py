"""Outputs that must not depend on the machine: the BLAS kernel, the BLAS
thread count and numpy's SIMD dispatch level.

Each test runs child processes under environment settings that emulate
another machine (``OPENBLAS_CORETYPE``, ``OPENBLAS_NUM_THREADS``,
``NPY_DISABLE_CPU_FEATURES``) and compares their bytes. The datasets carry
non-integer weights, whose sums are not exact, so any change of summation
order shows.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from homsample import Graph, graph, graphon, karate_manifest_path
from test_cli import MANIFEST, PINNED_OUTPUTS

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:   # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# numpy's dispatched targets above X86_V3 that this CPU has: disabling them
# makes numpy run the kernels an AVX2 machine runs
ABOVE_V3 = [t for t in __cpu_dispatch__
            if (t == "X86_V4" or t.startswith("AVX512")) and __cpu_features__.get(t)]
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": " ".join(ABOVE_V3)}
# OPENBLAS_CORETYPE picks a kernel only in a DYNAMIC_ARCH OpenBLAS on x86-64
CORETYPES = (platform.machine().lower() in ("x86_64", "amd64")
             and "DYNAMIC_ARCH" in str(getattr(np.__config__, "CONFIG", "")))
PRESCOTT = {"OPENBLAS_CORETYPE": "Prescott"}

needs_dispatch = pytest.mark.skipif(not ABOVE_V3, reason="no numpy target above X86_V3 here")
needs_coretypes = pytest.mark.skipif(not CORETYPES,
                                     reason="no DYNAMIC_ARCH OpenBLAS on x86-64 here")


def _run(args, env=None):
    """stdout of ``python args`` with ``env`` added to this process's environment."""
    res = subprocess.run([sys.executable, *args], env={**os.environ, **(env or {})},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _output(args, path, env=None):
    """The bytes a homsample command writes to ``--out path``."""
    _run(["-m", "homsample", *args, "--out", str(path)], env)
    return path.read_bytes()


def _write_dataset(root, name, g, labels):
    (root / f"{name}_edges.txt").write_text(graph.dump_edge_list(g), encoding="utf-8")
    (root / f"{name}_labels.txt").write_text(
        "".join(f"{v} {c}\n" for v, c in enumerate(labels)), encoding="utf-8")
    manifest = root / f"{name}.json"
    manifest.write_text(json.dumps({"name": name, "edge_file": f"{name}_edges.txt",
                                    "label_file": f"{name}_labels.txt", "class_count": 2}))
    return str(manifest)


@pytest.fixture(scope="module")
def float_karate(tmp_path_factory):
    """Karate with each weight w replaced by 0.1 w + 0.013 (k mod 7), k the edge index."""
    g, s, _ = graph.load_dataset(karate_manifest_path())
    k = np.arange(g.edge_count)
    weighted = Graph(g.node_count, g.edge_i, g.edge_j, 0.1 * g.edge_w + 0.013 * (k % 7))
    return _write_dataset(tmp_path_factory.mktemp("karate"), "karate", weighted, s.labels)


@pytest.fixture(scope="module")
def float_wrandom(tmp_path_factory):
    """A two-block W-random graph, n = 4,000 and 43,916 edges, with weights in [0.1, 2]."""
    w, _ = graphon.two_block_graphon(0.008, 0.003)
    g, u = graphon.sample_w_random_graph(w, 4000, np.random.default_rng([1, 0]))
    weights = np.round(np.random.default_rng(5).uniform(0.1, 2.0, g.edge_count), 3)
    weighted = Graph(g.node_count, g.edge_i, g.edge_j, weights)
    labels = np.minimum((u * 2).astype(np.int64), 1)
    return _write_dataset(tmp_path_factory.mktemp("wrandom"), "wrandom", weighted, labels)


def test_an_estimate_does_not_depend_on_the_blas_thread_count(float_wrandom, tmp_path):
    # 14,936 sampled edges: OpenBLAS splits a dot product this long between threads
    args = ("estimate", "--manifest", float_wrandom, "--design", "bernoulli", "--p", "0.6",
            "--metric", "dirichlet_total", "--mode", "ht_total", "--seed", "4")
    outputs = {_output(args, tmp_path / f"{threads}.json", {"OPENBLAS_NUM_THREADS": threads})
               for threads in ("1", "2")}
    assert len(outputs) == 1


@needs_coretypes
def test_an_experiment_does_not_depend_on_the_blas_kernel(float_karate, tmp_path):
    args = ("experiment", "--manifest", float_karate, "--design", "bernoulli", "--p", "0.5,0.8",
            "--metric", "dirichlet_total", "--reps", "200", "--seed", "3")
    assert _output(args, tmp_path / "a.json") == _output(args, tmp_path / "b.json", PRESCOTT)


@needs_dispatch
@pytest.mark.parametrize("name", [name for name, (args, _) in PINNED_OUTPUTS.items()
                                  if "bernoulli" in args or "traceroute" in args])
def test_pinned_outputs_do_not_depend_on_numpy_dispatch(tmp_path, name):
    # the pinned bytes are those of the default dispatch level, which its own test checks
    args, digest = PINNED_OUTPUTS[name]
    out = _output((args[0], "--manifest", MANIFEST, *args[1:]), tmp_path / "out.json", NO_AVX512)
    assert hashlib.sha256(out).hexdigest() == digest


PHI = """
import sys
import numpy as np
from homsample import GraphSignal, load_dataset
from homsample.graphon import GridGraphon, phi_grid, phi_step
grid = GridGraphon(np.array([[0.31, 0.07, 0.13], [0.07, 0.53, 0.011], [0.13, 0.011, 0.29]]))
g, s, _ = load_dataset(sys.argv[1])
features = GraphSignal(np.random.default_rng(2).normal(size=(g.node_count, 3)))
values = [phi_grid(grid, np.array([[0.3, -1.7], [2.9, 0.01], [-0.45, 1.3]])),
          phi_step(g, s), phi_step(g, features)]
print(" ".join(v.hex() for v in values))
"""


def test_graphon_functionals_do_not_depend_on_the_machine(float_wrandom):
    settings = [{}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
    settings += [PRESCOTT] if CORETYPES else []
    settings += [NO_AVX512] if ABOVE_V3 else []
    assert len({_run(["-c", PHI, float_wrandom], env) for env in settings}) == 1
