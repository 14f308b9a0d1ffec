"""Network sampling designs: Bernoulli-induced, SRS-induced, traceroute.

Every design is a frozen dataclass of its parameters alone, and owns its
mechanics: ``realize(g, rng)`` draws one sample from a given stream,
``realize_block(g, seeds)`` draws one sample per seed, each from its own
stream ``make_rng(seed)``, keyed for the whole block at once by
:func:`~homsample.rng.make_rngs`, into a :class:`SampleBlock`,
``edge_counts(g, rng, replications)`` counts how often each edge
is sampled over that many realizations drawn from one stream (the
empirical inclusion oracle), and ``inclusion(g)`` builds its analytic
inclusion model.
A seed is passed where a stream is drawn: ``draw_sample(graph, design,
seed)`` realizes a design on the stream ``make_rng(seed)``, so it is a pure
function of the three, and row r of ``draw_block(graph, design, seeds)`` is
the sample ``draw_sample`` gives on ``seeds[r]``. A sample holds only what
was observed; the command that drew it writes down how.
Induced designs observe exactly the edges with both endpoints in the
sampled node set. One kernel serves all three of their mechanics: it
draws one node set per row, each from its row's generator, and finds
every row's edges in one vectorized step. ``realize`` is its
one-row case, ``realize_block`` gives each row its seed's stream, and
``edge_counts`` gives every row the one stream, a block of rows at a
time. Traceroute observes the union of edges on one random shortest path
per source-target pair; its blocks repeat ``realize``, and its
``edge_counts`` walks every (row, source, target) path of a block of
realizations back at once, one uniform a hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import perm
from typing import Union

import numpy as np

from .graph import Graph
from .inclusion import InclusionModel, approx_pi_traceroute, edge_betweenness
from .rng import make_rng, make_rngs

# byte budget for the per-row arrays of one block of oracle realizations:
# the node and edge masks of an induced design, or traceroute's edge mask
# and the uniform keys of its node draws
_BLOCK_BYTES = 1 << 19


class _InducedDesign:
    """Mechanics of the induced designs, which differ only in their ``node_sample``."""

    def _masks(self, g: Graph, rows: int, rngs) -> tuple[np.ndarray, np.ndarray]:
        """Row r of the node mask holds the node set ``node_sample`` draws
        from the r-th generator of ``rngs``, drawn in row order, and row r
        of the edge mask the edges it induces, found for all rows at once."""
        nodes = np.zeros((rows, g.node_count), dtype=bool)
        for row, rng in zip(nodes, rngs):
            row[self.node_sample(g, rng)] = True
        return nodes, nodes[:, g.edge_i] & nodes[:, g.edge_j]

    def realize(self, g: Graph, rng) -> "SampledGraph":
        nodes, edges = self._masks(g, 1, [rng])
        return SampledGraph(g, np.flatnonzero(nodes[0]), np.flatnonzero(edges[0]))

    def realize_block(self, g: Graph, seeds) -> "SampleBlock":
        """Row r is ``realize`` on ``make_rng(seeds[r])``."""
        nodes, edges = self._masks(g, len(seeds), make_rngs(seeds))
        return SampleBlock(g, np.nonzero(edges)[1],
                           row_offsets(edges.sum(axis=1)), nodes.sum(axis=1))

    def edge_counts(self, g: Graph, rng, replications: int) -> np.ndarray:
        """Times each edge is sampled over ``replications`` successive ``realize``
        calls on one stream, drawn as blocks of rows whose masks fit ``_BLOCK_BYTES``
        (a row's node mask, two endpoint gathers and edge mask take n + 3m bytes)."""
        counts = np.zeros(g.edge_count, dtype=np.int64)
        block = max(1, _BLOCK_BYTES // max(1, g.node_count + 3 * g.edge_count))
        for start in range(0, replications, block):
            rows = min(block, replications - start)
            counts += self._masks(g, rows, [rng] * rows)[1].sum(axis=0)
        return counts


@dataclass(frozen=True)
class BernoulliDesign(_InducedDesign):
    """Independent node retention with probability p, induced edges."""

    p: float
    kind = "bernoulli"

    def validate(self, n: int):
        check_fractions(vars(self))

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
        from .shortest_paths import path_dag, sample_path   # traceroute code alone needs it

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
        ids = np.flatnonzero(seen)
        # a node mask, not np.unique, which imports numpy.ma on its first call
        touched = np.zeros(g.node_count, dtype=bool)
        touched[g.edge_i[ids]] = True
        touched[g.edge_j[ids]] = True
        nodes = np.flatnonzero(touched)
        return SampledGraph(g, nodes, ids, paths=tuple(paths),
                            meta={"skipped_pairs": skipped,
                                  "pair_rule": "sources and targets drawn by independent SRS; s=t pairs skipped"})

    def realize_block(self, g: Graph, seeds) -> "SampleBlock":
        """``realize`` on ``make_rng(seed)`` for each seed in turn."""
        samples = [self.realize(g, rng) for rng in make_rngs(seeds)]
        return SampleBlock(g, np.concatenate([s.edge_index for s in samples]),
                           row_offsets([s.edge_count for s in samples]),
                           np.array([s.node_count for s in samples]))

    def edge_counts(self, g: Graph, rng, replications: int) -> np.ndarray:
        """Times each edge is seen over ``replications`` realizations from one stream.

        Realizations are drawn in blocks of rows; a block's size comes from
        ``_BLOCK_BYTES``. Each row's sources and targets are uniform SRS
        subsets, drawn for the whole block at once, and then every
        (row, source, target) path of the block is walked back at once by
        :func:`sample_paths`, one uniform a hop. Each row counts the union
        of its edges once; s = t and unreachable pairs add no edge, as in
        ``realize``.
        """
        from .shortest_paths import sample_paths

        n, m = g.node_count, g.edge_count
        counts = np.zeros(m, dtype=np.int64)
        block = max(1, _BLOCK_BYTES // (m + 16 * n))
        for start in range(0, replications, block):
            rows = min(block, replications - start)
            sources = _srs_rows(rng, rows, n, self.n_sources)
            targets = _srs_rows(rng, rows, n, self.n_targets)
            seen = np.zeros((rows, m), dtype=bool)
            for walker, eids in sample_paths(g, sources, targets, rng):
                seen[walker // (self.n_sources * self.n_targets), eids] = True
            counts += seen.sum(axis=0)
        return counts

    def inclusion(self, g: Graph) -> InclusionModel:
        """Betweenness approximation of pi; no joint probabilities."""
        pi = approx_pi_traceroute(edge_betweenness(g), self.n_sources, self.n_targets, g.node_count)
        return InclusionModel(source="traceroute-approx", pi=pi)


SampleDesign = Union[BernoulliDesign, SrsDesign, TracerouteDesign]

_DESIGN_TYPES = {"bernoulli": BernoulliDesign, "srs": SrsDesign, "traceroute": TracerouteDesign}


def design_to_dict(design: SampleDesign, seed: int) -> dict:
    """The JSON form of a design realized on ``seed``: its kind, the seed and
    its parameters in field order."""
    return {"kind": design.kind, "seed": seed, **vars(design)}


def design_from_dict(d: dict) -> SampleDesign:
    """The design of a kind and its parameters; any other key is a bad parameter."""
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


def check_fractions(params: dict):
    """Refuse a Bernoulli ``p`` or an SRS ``frac`` of ``params`` outside (0, 1].
    No graph admits one, so it can be refused before a graph is read; a size
    is checked against the node count by its design's ``validate(n)``."""
    for key, name in (("p", "p"), ("frac", "SRS frac")):
        if key in params and not 0.0 < params[key] <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {params[key]}")


def resolve_design(template: dict, overrides: dict, n: int) -> SampleDesign:
    """Design from a template dict plus overrides; an SRS "frac" in (0, 1]
    becomes ``n_star = max(1, round(frac * n))`` unless n_star is given."""
    merged = {**template, **overrides}
    frac = merged.pop("frac", None)
    if frac is not None and "n_star" not in merged:
        frac = float(frac)
        check_fractions({"frac": frac})
        merged["n_star"] = max(1, round(frac * n))
    return design_from_dict(merged)


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """Observed subgraph: what a realization saw, not how it was drawn.

    ``edge_index`` holds the ids of the sampled edges in ``parent``, so
    endpoints, weights and per-edge values are read from the parent
    graph's edge arrays, and inclusion probabilities from a model's
    ``pi``, which is aligned with them.
    """

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
    """Samples of one graph, one row per sample.

    Row r of ``draw_block(parent, design, seeds)`` is the sample
    ``draw_sample(parent, design, seeds[r])``: it has ``sampled_nodes[r]``
    sampled nodes, and the parent ids of its sampled edges, in increasing
    order, are ``edge_index[offsets[r]:offsets[r + 1]]``.
    """

    parent: Graph
    edge_index: np.ndarray
    offsets: np.ndarray
    sampled_nodes: np.ndarray

    @classmethod
    def of(cls, sample: SampledGraph) -> "SampleBlock":
        """The one-row block of ``sample``."""
        return cls(sample.parent, sample.edge_index, row_offsets([sample.edge_count]),
                   np.array([sample.node_count]))

    @property
    def rows(self) -> int:
        return len(self.sampled_nodes)

    @cached_property
    def sampled_edges(self) -> np.ndarray:
        return np.diff(self.offsets)


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


def induced_subgraph(g: Graph, nodes) -> SampledGraph:
    """Subgraph induced by a node set (inclusion probabilities unfilled)."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64).ravel())
    if len(nodes) and (nodes[0] < 0 or nodes[-1] >= g.node_count):
        raise ValueError(f"node id out of range [0, {g.node_count})")
    mask = np.zeros(g.node_count, dtype=bool)
    mask[nodes] = True
    return SampledGraph(g, nodes, np.flatnonzero(mask[g.edge_i] & mask[g.edge_j]))


def draw_sample(g: Graph, design: SampleDesign, seed: int) -> SampledGraph:
    """Realize a design on a graph on the stream ``make_rng(seed)``;
    deterministic in (graph, design, seed)."""
    design.validate(g.node_count)
    return design.realize(g, make_rng(seed))


def draw_block(g: Graph, design: SampleDesign, seeds) -> SampleBlock:
    """Realize a design once per seed; row r is ``draw_sample(g, design, seeds[r])``."""
    design.validate(g.node_count)
    return design.realize_block(g, seeds)
