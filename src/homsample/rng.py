"""Seeded random streams and the stream-splitting rule used everywhere.

All randomness in this package flows through counter-based Philox
generators created here, so that a (graph, design, seed) triple pins a
sample exactly, on any platform.
"""

import numpy as np

# Default CLI seed; documented in README, override with --seed.
DEFAULT_SEED = 271828


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator for an integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def child_rng(base_seed: int, *path: int) -> np.random.Generator:
    """Generator on the derived stream for ``[base_seed, *path]``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(base_seed)] + [int(p) for p in path])))


def derive_seed(base_seed: int, *path: int) -> int:
    """Derive an independent 64-bit child seed from a base seed and an index path.

    The rule is fixed: hash ``[base_seed, *path]`` through ``SeedSequence``
    and keep one 64-bit word. The experiment harness seeds replication ``r``
    of sweep ``s`` with ``derive_seed(base, 1, s, r)`` and auxiliary draws
    (e.g. the empirical inclusion oracle) with ``derive_seed(base, 2, s)``,
    so the streams do not overlap and any one replication can be replayed
    alone from its seed.
    """
    seq = np.random.SeedSequence([int(base_seed)] + [int(p) for p in path])
    lo, hi = seq.generate_state(2)
    return int(lo) | (int(hi) << 32)
