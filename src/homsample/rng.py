"""Seeded random streams and the stream-splitting rule used everywhere.

All randomness in this package flows through counter-based Philox
generators created here, so that a (graph, design, seed) triple pins a
sample exactly, on any platform.

Pitfall: ``SeedSequence`` pads its entropy with zeros, so paths that
differ only by trailing zeros name one stream. ``make_rng(s)``,
``child_rng(s, 0)`` and ``child_rng(s, 0, 0)`` draw the same numbers,
and ``derive_seed(s, 1, 0, 0) == derive_seed(s, 1)``. Streams that are
used together must differ somewhere other than in trailing zeros, as
the harness's ``make_rng(derive_seed(base, 1, s, r))`` replication
streams and each sweep's one oracle stream
``make_rng(derive_seed(base, 2, s))`` do.
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
    with ``derive_seed(base, 2, s)``: the empirical inclusion oracle draws
    all of a sweep's realizations from that one stream. So the streams do
    not overlap and any one replication can be replayed alone from its
    seed.
    """
    seq = np.random.SeedSequence([int(base_seed)] + [int(p) for p in path])
    lo, hi = seq.generate_state(2)
    return int(lo) | (int(hi) << 32)
