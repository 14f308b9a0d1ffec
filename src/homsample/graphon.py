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
from .metrics import dirichlet_energy
from .rng import child_rng


def _half_ordered_sum(w: np.ndarray, x: np.ndarray) -> float:
    # sum_ab w_ab ||x_a - x_b||^2 expanded bilinearly, halved (see module note)
    sq = np.einsum("af,af->a", x, x)
    rowsum = w.sum(axis=1)
    cross = float(np.einsum("ab,ab->", w, x @ x.T))
    return float(rowsum @ sq) - cross


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
    x = s.rows
    sq = np.einsum("af,af->a", x, x)
    degree = (np.bincount(g.edge_i, g.edge_w, minlength=n)
              + np.bincount(g.edge_j, g.edge_w, minlength=n))
    cross = float(g.edge_w @ np.einsum("ef,ef->e", x[g.edge_i], x[g.edge_j]))
    return (float(degree @ sq) - 2.0 * cross) / float(n * n)


@dataclass(frozen=True, eq=False)
class GridGraphon:
    """Limit graphon sampled on a uniform m x m grid; entries in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("grid must be square")
        if not np.array_equal(v, v.T):
            raise ValueError("grid must be symmetric")
        if np.any((v < 0) | (v > 1)):
            raise ValueError("grid values must lie in [0, 1]")
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


def two_block_graphon(p_in: float, p_out: float, resolution: int = 2):
    """Equal two-block stochastic-block graphon and its block one-hot signal.

    Returns ``(GridGraphon, signal_grid)``; resolution must be even so the
    blocks are exactly representable.
    """
    if resolution < 2 or resolution % 2:
        raise ValueError("resolution must be even and >= 2")
    half = resolution // 2
    v = np.full((resolution, resolution), p_out)
    v[:half, :half] = p_in
    v[half:, half:] = p_in
    sig = np.zeros((resolution, 2))
    sig[:half, 0] = 1.0
    sig[half:, 1] = 1.0
    return GridGraphon(v), sig


def sample_w_random_graph(w: GridGraphon, n: int, rng) -> tuple[Graph, np.ndarray]:
    """Random graph with edge probabilities w(u_i, u_j) at i.i.d. uniform latents."""
    u = rng.random(n)
    cells = w.cell_of(u)
    iu, ju = np.triu_indices(n, k=1)
    probs = w.values[cells[iu], cells[ju]]
    keep = rng.random(len(probs)) < probs
    return Graph.from_arrays(n, iu[keep], ju[keep]), u


def signal_at_latents(signal_grid: np.ndarray, w: GridGraphon, u: np.ndarray) -> GraphSignal:
    """Node signal obtained by evaluating a piecewise-constant rule at latents."""
    rows = np.asarray(signal_grid, dtype=np.float64)[w.cell_of(u)]
    return GraphSignal(rows)


def convergence_experiment(w: GridGraphon, signal_grid: np.ndarray, sizes, reps: int,
                           base_seed: int) -> dict:
    """Monte Carlo check that TV / n^2 approaches the graphon functional.

    For each size n, ``reps`` independent W-random graphs are generated on
    stream (base_seed, size_index, rep); reported per size: the mean of
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
            rng = child_rng(base_seed, k, r)
            g, u = sample_w_random_graph(w, n, rng)
            ratios[r] = dirichlet_energy(g, signal_at_latents(signal_grid, w, u)) / float(n * n)
        series.append({
            "n": n,
            "mean": float(ratios.mean()),
            "deviation": float(np.abs(ratios - phi).mean()),
        })
    return {"phi": phi, "series": series}
