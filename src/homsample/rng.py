"""Seeded random streams and the stream-splitting rule used everywhere.

All randomness in this package flows through counter-based Philox
generators created here, so that a (graph, design, seed) triple pins a
sample exactly, on any platform.

The streams are numpy's: a path of non-negative integers is hashed as
``np.random.SeedSequence(path)`` hashes it, and a generator is
``Generator(Philox(SeedSequence(seed)))``. A Philox stream is fixed by its
128-bit key alone (Salmon et al. 2011), and ``SeedSequence``'s hash is a
fixed algorithm on uint32 words, so this module computes it itself, with
numpy arithmetic vectorized over rows: :func:`derive_seeds` hashes a block
of paths at once, and :func:`make_rngs` hashes a block of keys at once and
re-keys one ``Generator(Philox(key=...))`` per row. The tests pin every
seed, key and draw to numpy's own ``SeedSequence``.

Pitfall: ``SeedSequence`` pads its entropy with zeros, so paths that
differ only by trailing zeros name one stream. ``make_rng(s)``,
``child_rng(s, 0)`` and ``child_rng(s, 0, 0)`` draw the same numbers,
and ``derive_seed(s, 1, 0, 0) == derive_seed(s, 1)``. Streams that are
used together must differ somewhere other than in trailing zeros, as
the harness's ``make_rng(derive_seed(base, 1, s, r))`` replication
streams and each sweep's one oracle stream
``make_rng(derive_seed(base, 2, s))`` do. The padding is neutral only up
to the hash's 4-word pool: entropy words past the pool are mixed in
again, so ``[x]`` and ``[x, 0]`` hash alike, but five words do not hash
as four, and :func:`_hash_paths` pads a row to 4 words, never further.

The first entry of a path names its domain: 1 for the harness's
replications, 2 for its oracle draws and 3 for the W-random graphs of
``graphon.convergence_experiment``, which draws repetition ``r`` at size
index ``k`` from ``child_rng(base, 3, k, r)``. So its first graph never
shares a stream with ``make_rng(base)``.
"""

import numpy as np

# Default CLI seed; documented in README, override with --seed.
DEFAULT_SEED = 271828

# numpy's SeedSequence: pool size, hash constants and multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _generate_state(entropy: np.ndarray, words: int) -> np.ndarray:
    """Row r is ``SeedSequence(entropy[r]).generate_state(words)``.

    ``entropy`` is an R x L uint32 array holding one entropy word list per
    row; rows shorter than the 4-word pool are zero-padded, which hashes
    alike. All arithmetic is on uint32 arrays, which wrap silently.
    """
    rows, width = entropy.shape
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, width):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))

    out = np.empty((rows, words), dtype=np.uint32)
    const = _INIT_B
    for k in range(words):
        value = pool[k % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        out[:, k] = value ^ (value >> 16)
    return out


def _hash_paths(path, words: int) -> np.ndarray:
    """R x ``words`` uint64: ``SeedSequence(row).generate_state(words, np.uint64)``
    for each row of ``path``.

    Each entry of ``path`` is a non-negative integer or a 1-D sequence of
    them, one per row; integers are shared by every row. Like
    ``SeedSequence``, a row's entropy is each entry's little-endian 32-bit
    words in turn, 0 being the one word 0. Rows of at most 4 words are
    hashed together, zero-padded to 4; longer rows are hashed in groups of
    one word count.
    """
    columns = np.broadcast_arrays(*(np.atleast_1d(np.asarray(p, dtype=object)) for p in path))
    rows = len(columns[0])
    words32, present = [], []
    for col in columns:
        if (col < 0).any():
            raise ValueError("seed path entries must be non-negative integers")
        live = np.ones(rows, dtype=bool)
        while live.any():
            words32.append((col & _MASK32).astype(np.uint32))
            present.append(live)
            col = col >> 32
            live = col != 0
    present = np.array(present)
    width = present.sum(axis=0)
    entropy = np.zeros((rows, max(_POOL, int(width.max()))), dtype=np.uint32)
    slot = present.cumsum(axis=0) - 1
    for word, live, pos in zip(words32, present, slot):
        entropy[live, pos[live]] = word[live]
    pooled = np.maximum(width, _POOL)
    out = np.empty((rows, 2 * words), dtype=np.uint32)
    for w in set(pooled.tolist()):
        sel = pooled == w
        out[sel] = _generate_state(entropy[sel, :w], 2 * words)
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _generator(key: np.ndarray) -> np.random.Generator:
    """Philox generator with counter 0 and an empty buffer on ``key``."""
    return np.random.Generator(np.random.Philox(key=key))


def make_rngs(seeds):
    """Yields ``make_rng(seed)`` for each seed in turn, as one generator
    re-keyed per seed, so each is good only until the next is asked for.
    Every key is hashed at once."""
    seeds = list(seeds)
    if not seeds:
        return
    keys = _hash_paths([seeds], 2)
    rng = _generator(keys[0])
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        # the setter copies the arrays, so one dict serves every row
        state["state"]["key"] = key
        rng.bit_generator.state = state
        yield rng


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator for an integer seed."""
    return _generator(_hash_paths([int(seed)], 2)[0])


def child_rng(base_seed: int, *path: int) -> np.random.Generator:
    """Generator on the derived stream for ``[base_seed, *path]``."""
    return _generator(_hash_paths([int(base_seed)] + [int(p) for p in path], 2)[0])


def derive_seeds(base_seed: int, *path) -> np.ndarray:
    """uint64 ``derive_seed`` of each row of ``[base_seed, *path]``, hashed at once.

    Any entry of ``path`` may be a 1-D sequence of integers, one per row,
    such as the replication indices of a block; integers are shared by
    every row.
    """
    return _hash_paths([int(base_seed), *path], 1)[:, 0]


def derive_seed(base_seed: int, *path: int) -> int:
    """Derive an independent 64-bit child seed from a base seed and an index path.

    The rule is fixed: hash ``[base_seed, *path]`` as ``SeedSequence`` does
    and keep one 64-bit word. The experiment harness seeds replication ``r``
    of sweep ``s`` with ``derive_seed(base, 1, s, r)`` and auxiliary draws
    with ``derive_seed(base, 2, s)``: the empirical inclusion oracle draws
    all of a sweep's realizations from that one stream. So the streams do
    not overlap and any one replication can be replayed alone from its
    seed.
    """
    return int(derive_seeds(base_seed, *(int(p) for p in path))[0])
