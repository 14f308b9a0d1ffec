"""Graphon-side representations and the continuous smoothness functional.

A finite graph-signal pair embeds into function space as a step graphon
(the adjacency, constant on n x n blocks of [0,1]^2) and a step signal
(feature rows, constant on n blocks of [0,1]). ``phi_step`` evaluates the
functional of that embedding from the edge list, without building the
n x n blocks.

Summation convention, fixed here once: graphs store each unordered edge
once, while the double integral over [0,1]^2 visits ordered pairs, so the
raw integral double-counts. All functionals in this module carry a factor
1/2 against the ordered double sum, which makes

    phi_step(g, s) * n**2 == dirichlet_energy(g, s)

hold exactly, and makes W-random graphs satisfy TV / n^2 -> phi of the
generating graphon. Every other module relies on this identity rather
than re-deriving the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphSignal
from .metrics import dirichlet_energy, same_label_values
from .rng import child_rng


def _half_ordered_sum(w: np.ndarray, x: np.ndarray) -> float:
    # sum_ab w_ab ||x_a - x_b||^2 expanded bilinearly, halved (see module note)
    sq = np.einsum("af,af->a", x, x)
    gram = np.einsum("af,bf->ab", x, x)   # numpy's own loops; no BLAS product
    return float((w.sum(axis=1) * sq).sum()) - float(np.einsum("ab,ab->", w, gram))


def phi_step(g: Graph, s: GraphSignal) -> float:
    """Smoothness functional of the step pair that embeds (g, s); equals TV / n^2.

    The half-ordered double sum over the n x n blocks, expanded as
    ``sum_v d_v ||x_v||^2 - 2 sum_e w_e x_i . x_j`` with weighted degrees
    ``d_v``, is evaluated from the edge list in O(n + m) memory.
    """
    if s.node_count != g.node_count:
        raise ValueError(f"signal has {s.node_count} rows for {g.node_count} nodes")
    n = g.node_count
    if n == 0:
        raise ValueError("graph has no nodes")
    degree = (np.bincount(g.edge_i, g.edge_w, minlength=n)
              + np.bincount(g.edge_j, g.edge_w, minlength=n))
    if s.labels is None:
        x = s.rows
        sq, dots = np.einsum("af,af->a", x, x), np.einsum("ef,ef->e", x[g.edge_i], x[g.edge_j])
    else:   # a label's one-hot row has norm 1, and two rows a dot product of 1 or 0
        sq, dots = np.ones(n), same_label_values(g, s)
    return (float((degree * sq).sum()) - 2.0 * float((g.edge_w * dots).sum())) / float(n * n)


@dataclass(frozen=True, eq=False)
class GridGraphon:
    """Limit graphon sampled on a uniform m x m grid; entries in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("grid must be square")
        if np.any(~((v >= 0) & (v <= 1))):          # written so that NaN fails too
            raise ValueError("grid values must lie in [0, 1]")
        if not np.array_equal(v, v.T):
            raise ValueError("grid must be symmetric")
        object.__setattr__(self, "values", v)

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    def cell_of(self, u) -> np.ndarray:
        """Grid cell containing each latent position in [0, 1]."""
        m = self.resolution
        return np.minimum((np.asarray(u) * m).astype(np.int64), m - 1)


def phi_grid(w: GridGraphon, signal_grid: np.ndarray) -> float:
    """Exact functional for a grid graphon with a piecewise-constant signal.

    ``signal_grid`` gives the signal value on each of the m grid cells;
    the block quadrature is exact for this class (no discretization error).
    """
    x = np.ascontiguousarray(signal_grid, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != w.resolution:
        raise ValueError("signal grid must have one row per graphon cell")
    m = w.resolution
    return _half_ordered_sum(w.values, x) / float(m * m)


def two_block_graphon(p_in: float, p_out: float):
    """Equal two-block stochastic-block graphon and its block one-hot signal.

    Returns ``(GridGraphon, signal_grid)`` on the 2 x 2 grid, one cell per block.
    """
    return GridGraphon(np.array([[p_in, p_out], [p_out, p_in]])), np.eye(2)


def _bernoulli_positions(total: int, p: float, rng) -> np.ndarray:
    """Positions in [0, total) kept by independent Bernoulli(p) trials, in order.

    Successive gaps between successes are geometric, so the positions are a
    cumulative sum of ``rng.geometric(p)`` draws, drawn in blocks sized to the
    expected remaining count and extended until one passes ``total``.
    """
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    parts, last = [], -1
    while True:
        expected = (total - 1 - last) * p
        size = int(expected + 4.0 * np.sqrt(expected)) + 16
        # a gap that passes total ends the scan; clipped there, the sum stays in int64
        pos = last + np.cumsum(np.minimum(rng.geometric(p, size), total + 1))
        if pos[-1] >= total:
            parts.append(pos[:np.searchsorted(pos, total)])
            return np.concatenate(parts)
        parts.append(pos)
        last = int(pos[-1])


def _unrank_pairs(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (x, y), 0 <= x < y, of triangular ranks k = y (y - 1) / 2 + x.

    The float root estimates y to within one (above 2**53 it can overshoot
    just below a row boundary); integer corrections make it exact for
    every rank below 2**61.
    """
    k = np.asarray(k, dtype=np.int64)
    y = ((1.0 + np.sqrt(8.0 * k + 1.0)) / 2.0).astype(np.int64)
    y -= y * (y - 1) // 2 > k
    y += (y + 1) * y // 2 <= k
    return k - y * (y - 1) // 2, y


def sample_w_random_graph(w: GridGraphon, n: int, rng) -> tuple[Graph, np.ndarray]:
    """Random graph with edge probabilities w(u_i, u_j) at i.i.d. uniform latents.

    Every node pair is an exact, independent Bernoulli draw. The latents
    ``u = rng.random(n)`` come first; the nodes are then grouped by grid
    cell, and each cell pair's successes are found by geometric skipping
    over its pairs, so time and memory are O(n + m), never O(n^2).
    """
    u = rng.random(n)
    cells = w.cell_of(u)
    members = np.argsort(cells, kind="stable")
    sizes = np.bincount(cells, minlength=w.resolution)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    heads, tails = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for a in range(w.resolution):
        for b in range(a, w.resolution):
            p, na, nb = float(w.values[a, b]), int(sizes[a]), int(sizes[b])
            total = na * (na - 1) // 2 if a == b else na * nb
            if p == 0.0 or total == 0:
                continue
            k = _bernoulli_positions(total, p, rng)
            x, y = _unrank_pairs(k) if a == b else np.divmod(k, nb)
            heads.append(members[starts[a] + x])
            tails.append(members[starts[b] + y])
    return Graph.from_arrays(n, np.concatenate(heads), np.concatenate(tails)), u


def signal_at_latents(signal_grid: np.ndarray, w: GridGraphon, u: np.ndarray) -> GraphSignal:
    """Node signal obtained by evaluating a piecewise-constant rule at latents."""
    rows = np.asarray(signal_grid, dtype=np.float64)[w.cell_of(u)]
    return GraphSignal(rows)


def convergence_experiment(w: GridGraphon, signal_grid: np.ndarray, sizes, reps: int,
                           base_seed: int) -> dict:
    """Monte Carlo check that TV / n^2 approaches the graphon functional.

    For each size n, ``reps`` independent W-random graphs are generated on
    stream (base_seed, 3, size_index, rep); reported per size: the mean of
    TV / n^2 and the mean absolute deviation from the analytic functional.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    sizes = [int(n) for n in sizes]
    if any(n < 1 for n in sizes):
        raise ValueError(f"sizes must be >= 1, got {min(sizes)}")
    phi = phi_grid(w, signal_grid)
    series = []
    for k, n in enumerate(sizes):
        ratios = np.empty(reps)
        for r in range(reps):
            rng = child_rng(base_seed, 3, k, r)
            g, u = sample_w_random_graph(w, n, rng)
            ratios[r] = dirichlet_energy(g, signal_at_latents(signal_grid, w, u)) / float(n * n)
        series.append({
            "n": n,
            "mean": float(ratios.mean()),
            "deviation": float(np.abs(ratios - phi).mean()),
        })
    return {"phi": phi, "series": series}
