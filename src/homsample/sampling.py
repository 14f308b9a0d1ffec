"""Network sampling designs: Bernoulli-induced, SRS-induced, traceroute.

Every design is a frozen dataclass carrying its parameters and a seed, and
owns its mechanics: ``realize(g, rng)`` draws one sample from a given
stream, ``realize_block(g, seeds)`` draws one sample per seed, each from
its own stream ``make_rng(seed)``, into a :class:`SampleBlock`,
``edge_counts(g, rng, replications)`` counts how often each edge
is sampled over that many realizations drawn from one stream (the
empirical inclusion oracle), and ``inclusion(g)`` builds its analytic
inclusion model.
``draw_sample(graph, design)`` realizes a design on the stream of its seed,
so it is a pure function of that pair, and row r of
``draw_block(graph, design, seeds)`` is the sample ``draw_sample`` gives
on ``seeds[r]``. Induced designs observe exactly the edges with both
endpoints in the sampled node set. One kernel serves all three of their
mechanics: it draws one node set per row, each from its row's generator,
and finds every row's edges in one vectorized step. ``realize`` is its
one-row case, ``realize_block`` gives each row ``make_rng(seed)``, and
``edge_counts`` gives every row the one stream, a block of rows at a
time. Traceroute observes the union of edges on one random shortest path
per source-target pair; its blocks repeat ``realize``, and its
``edge_counts`` backtracks a block of realizations at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import perm
from typing import Union

import numpy as np

from .graph import Graph
from .inclusion import InclusionModel, approx_pi_traceroute, edge_betweenness
from .rng import DEFAULT_SEED, make_rng
from .shortest_paths import path_dag, sample_path, sample_paths

# byte budget for the per-row arrays of one block of oracle realizations:
# the node and edge masks of an induced design, or traceroute's edge mask
# and the uniform keys of its node draws
_BLOCK_BYTES = 1 << 19


class _InducedDesign:
    """Mechanics of the induced designs, which differ only in their ``node_sample``."""

    def _masks(self, g: Graph, rngs) -> tuple[np.ndarray, np.ndarray]:
        """Row r of the node mask holds the node set ``node_sample`` draws
        from ``rngs[r]``, drawn in row order, and row r of the edge mask the
        edges it induces, found for all rows at once."""
        nodes = np.zeros((len(rngs), g.node_count), dtype=bool)
        for row, rng in zip(nodes, rngs):
            row[self.node_sample(g, rng)] = True
        return nodes, nodes[:, g.edge_i] & nodes[:, g.edge_j]

    def realize(self, g: Graph, rng) -> "SampledGraph":
        nodes, edges = self._masks(g, [rng])
        return SampledGraph(self, g, np.flatnonzero(nodes[0]), np.flatnonzero(edges[0]))

    def realize_block(self, g: Graph, seeds) -> "SampleBlock":
        """Row r is ``realize`` on ``make_rng(seeds[r])``."""
        nodes, edges = self._masks(g, [make_rng(seed) for seed in seeds])
        return SampleBlock(self, g, tuple(seeds), np.nonzero(edges)[1],
                           row_offsets(edges.sum(axis=1)), nodes.sum(axis=1))

    def edge_counts(self, g: Graph, rng, replications: int) -> np.ndarray:
        """Times each edge is sampled over ``replications`` successive ``realize``
        calls on one stream, drawn as blocks of rows whose masks fit ``_BLOCK_BYTES``
        (a row's node mask, two endpoint gathers and edge mask take n + 3m bytes)."""
        counts = np.zeros(g.edge_count, dtype=np.int64)
        block = max(1, _BLOCK_BYTES // max(1, g.node_count + 3 * g.edge_count))
        for start in range(0, replications, block):
            counts += self._masks(g, [rng] * min(block, replications - start))[1].sum(axis=0)
        return counts


@dataclass(frozen=True)
class BernoulliDesign(_InducedDesign):
    """Independent node retention with probability p, induced edges."""

    p: float
    seed: int = DEFAULT_SEED
    kind = "bernoulli"

    def validate(self, n: int):
        if not 0 < self.p <= 1:
            raise ValueError(f"p must be in (0, 1], got {self.p}")

    def node_sample(self, g: Graph, rng) -> np.ndarray:
        return bernoulli_node_sample(g, self.p, rng)

    def inclusion(self, g: Graph) -> InclusionModel:
        """pi = p^2 per edge; an edge pair spanning k nodes is joint with p^k."""
        return InclusionModel(source="analytic:bernoulli", pi=np.full(g.edge_count, self.p ** 2),
                              joint_by_span=self.p ** np.arange(5.0))


@dataclass(frozen=True)
class SrsDesign(_InducedDesign):
    """Uniform node subset of fixed size without replacement, induced edges."""

    n_star: int
    seed: int = DEFAULT_SEED
    kind = "srs"

    def validate(self, n: int):
        if not 1 <= self.n_star <= n:
            raise ValueError(f"n_star must be in [1, {n}], got {self.n_star}")

    def node_sample(self, g: Graph, rng) -> np.ndarray:
        return srs_node_sample(g, self.n_star, rng)

    def inclusion(self, g: Graph) -> InclusionModel:
        """k-node joints are falling-factorial ratios, 0 when n_star < k; pi is the 2-node one."""
        n = g.node_count
        by_span = np.array([perm(self.n_star, k) / perm(n, k) if perm(n, k) else 0.0
                            for k in range(5)])
        return InclusionModel(source="analytic:srs", pi=np.full(g.edge_count, by_span[2]),
                              joint_by_span=by_span)


@dataclass(frozen=True)
class TracerouteDesign:
    """Edges discovered along shortest paths between sampled sources and targets.

    Sources and targets are two independent SRS draws (overlap allowed);
    source = target pairs contribute nothing.
    """

    n_sources: int
    n_targets: int
    seed: int = DEFAULT_SEED
    kind = "traceroute"

    def validate(self, n: int):
        for name, value in (("n_sources", self.n_sources), ("n_targets", self.n_targets)):
            if not 1 <= value <= n:
                raise ValueError(f"{name} must be in [1, {n}], got {value}")

    def realize(self, g: Graph, rng) -> "SampledGraph":
        """Union of one random shortest path per source-target pair.

        Sampled nodes are exactly the endpoints of sampled edges; unreachable
        pairs are skipped and counted in ``meta``.
        """
        sources = srs_node_sample(g, self.n_sources, rng)
        targets = srs_node_sample(g, self.n_targets, rng)
        seen = np.zeros(g.edge_count, dtype=bool)
        paths = []
        skipped = 0
        for s in sources:
            dag = path_dag(g, int(s))
            for t in targets:
                if s == t:
                    continue
                res = sample_path(dag, int(t), rng)
                if res is None:
                    skipped += 1
                    continue
                nodes, eids = res
                seen[eids] = True
                paths.append(tuple(nodes))
        ids = np.nonzero(seen)[0]
        nodes = np.unique(np.concatenate([g.edge_i[ids], g.edge_j[ids]])) if len(ids) else np.empty(0, dtype=np.int64)
        return SampledGraph(self, g, nodes, ids, paths=tuple(paths),
                            meta={"skipped_pairs": skipped,
                                  "pair_rule": "sources and targets drawn by independent SRS; s=t pairs skipped"})

    def realize_block(self, g: Graph, seeds) -> "SampleBlock":
        """``realize`` on ``make_rng(seed)`` for each seed in turn."""
        samples = [self.realize(g, make_rng(seed)) for seed in seeds]
        return SampleBlock(self, g, tuple(seeds),
                           np.concatenate([s.edge_index for s in samples]),
                           row_offsets([s.edge_count for s in samples]),
                           np.array([s.node_count for s in samples]))

    def edge_counts(self, g: Graph, rng, replications: int) -> np.ndarray:
        """Times each edge is seen over ``replications`` realizations from one stream.

        Realizations are drawn in blocks of rows; a block's size comes from
        ``_BLOCK_BYTES``. Each row's sources and targets are uniform SRS
        subsets, drawn for the whole block at once. The pairs are grouped
        by source, and every (row, target) of a source is
        backtracked at once by :func:`sample_paths`, sources in increasing
        order. Each row counts the union of its edges once; s = t and
        unreachable pairs add no edge, as in ``realize``.
        """
        n, m = g.node_count, g.edge_count
        counts = np.zeros(m, dtype=np.int64)
        block = max(1, _BLOCK_BYTES // (m + 16 * n))
        for start in range(0, replications, block):
            rows = min(block, replications - start)
            sources = _srs_rows(rng, rows, n, self.n_sources)
            targets = _srs_rows(rng, rows, n, self.n_targets)
            seen = np.zeros((rows, m), dtype=bool)
            flat = sources.ravel()
            by_source = flat.argsort(kind="stable")
            for group in np.split(by_source, np.flatnonzero(np.diff(flat[by_source])) + 1):
                # the rows holding this source, in row order
                held = group // self.n_sources
                dag = path_dag(g, int(flat[group[0]]))
                walker, eids = sample_paths(dag, targets[held].ravel(), rng)
                seen[held[walker // self.n_targets], eids] = True
            counts += seen.sum(axis=0)
        return counts

    def inclusion(self, g: Graph) -> InclusionModel:
        """Betweenness approximation of pi; no joint probabilities."""
        pi = approx_pi_traceroute(edge_betweenness(g), self.n_sources, self.n_targets, g.node_count)
        return InclusionModel(source="traceroute-approx", pi=pi)


SampleDesign = Union[BernoulliDesign, SrsDesign, TracerouteDesign]

_DESIGN_TYPES = {"bernoulli": BernoulliDesign, "srs": SrsDesign, "traceroute": TracerouteDesign}


def design_params(design: SampleDesign) -> dict:
    """A design's parameters in field order, without its seed."""
    return {k: v for k, v in vars(design).items() if k != "seed"}


def design_to_dict(design: SampleDesign) -> dict:
    return {"kind": design.kind, "seed": design.seed, **design_params(design)}


def design_from_dict(d: dict) -> SampleDesign:
    d = dict(d)
    kind = d.pop("kind", None)
    try:
        cls = _DESIGN_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown design kind {kind!r}") from None
    try:
        return cls(**d)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {kind!r} design: {exc}") from None


def with_seed(design: SampleDesign, seed: int) -> SampleDesign:
    return replace(design, seed=int(seed))


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """Observed subgraph with provenance.

    ``edge_index`` holds the ids of the sampled edges in ``parent``, so
    endpoints, weights and per-edge values are read from the parent
    graph's edge arrays, and inclusion probabilities from a model's
    ``pi``, which is aligned with them. ``design`` is None for subgraphs
    built directly from a node set.
    """

    design: SampleDesign | None
    parent: Graph
    nodes: np.ndarray
    edge_index: np.ndarray
    paths: tuple | None = None
    meta: dict | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edge_index)

    def to_json_dict(self, incl: InclusionModel | None = None) -> dict:
        """JSON form; each edge's ``pi`` is read from ``incl``, or null without it."""
        g, ids = self.parent, self.edge_index
        pi = incl.pi[ids].tolist() if incl is not None else [None] * self.edge_count
        out = {
            "design": design_to_dict(self.design) if self.design is not None else None,
            "seed": self.design.seed if self.design is not None else None,
            "parent_node_count": g.node_count,
            "nodes": [int(v) for v in self.nodes],
            "edges": [
                {"i": int(i), "j": int(j), "w": float(w), "pi": p}
                for i, j, w, p in zip(g.edge_i[ids], g.edge_j[ids], g.edge_w[ids], pi)
            ],
        }
        if self.paths is not None:
            out["paths"] = [list(map(int, p)) for p in self.paths]
        if self.meta:
            out["meta"] = self.meta
        return out


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """Samples of one design on one graph, one row per seed.

    Row r is the sample ``draw_sample(parent, with_seed(design, seeds[r]))``:
    it has ``sampled_nodes[r]`` sampled nodes, and the parent ids of its
    sampled edges, in increasing order, are
    ``edge_index[offsets[r]:offsets[r + 1]]``. A block of a sample with no
    design has the one seed None.
    """

    design: SampleDesign | None
    parent: Graph
    seeds: tuple
    edge_index: np.ndarray
    offsets: np.ndarray
    sampled_nodes: np.ndarray

    @classmethod
    def of(cls, sample: SampledGraph) -> "SampleBlock":
        """The one-row block of ``sample``."""
        design = sample.design
        return cls(design, sample.parent, (None if design is None else design.seed,),
                   sample.edge_index, row_offsets([sample.edge_count]),
                   np.array([sample.node_count]))

    @property
    def rows(self) -> int:
        return len(self.seeds)

    @cached_property
    def sampled_edges(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def design_dicts(self) -> list:
        """Each row's ``design_to_dict`` of its seeded design, or None without a design."""
        if self.design is None:
            return [None] * self.rows
        kind, params = self.design.kind, design_params(self.design)
        return [{"kind": kind, "seed": seed, **params} for seed in self.seeds]


def bernoulli_node_sample(g: Graph, p: float, rng) -> np.ndarray:
    """Each node retained independently with probability p, in node order."""
    return np.nonzero(rng.random(g.node_count) < p)[0]


def srs_node_sample(g: Graph, n_star: int, rng) -> np.ndarray:
    """Uniform size-n_star node subset without replacement, sorted."""
    return np.sort(rng.choice(g.node_count, size=n_star, replace=False))


def _srs_rows(rng, rows: int, n: int, k: int) -> np.ndarray:
    """``rows`` independent uniform size-k subsets of range(n), each sorted:
    the k smallest of n uniform keys per row."""
    keys = rng.random((rows, n))
    return np.sort(keys.argpartition(k - 1, axis=1)[:, :k], axis=1)


def row_offsets(counts) -> np.ndarray:
    """Row offsets into a concatenation of rows of the given lengths."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def induced_subgraph(g: Graph, nodes, design: SampleDesign | None = None) -> SampledGraph:
    """Subgraph induced by a node set (inclusion probabilities unfilled)."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64).ravel())
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= g.node_count):
        raise ValueError(f"node id out of range [0, {g.node_count})")
    mask = np.zeros(g.node_count, dtype=bool)
    mask[nodes] = True
    return SampledGraph(design, g, nodes, np.flatnonzero(mask[g.edge_i] & mask[g.edge_j]))


def draw_sample(g: Graph, design: SampleDesign) -> SampledGraph:
    """Realize a design on a graph; deterministic in (graph, design, seed)."""
    design.validate(g.node_count)
    return design.realize(g, make_rng(design.seed))


def draw_block(g: Graph, design: SampleDesign, seeds) -> SampleBlock:
    """Realize a design once per seed; row r is ``draw_sample(g, with_seed(design, seeds[r]))``."""
    design.validate(g.node_count)
    return design.realize_block(g, seeds)
