import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homsample import (
    Graph,
    GraphSignal,
    karate_manifest_path,
    load_dataset,
    load_edge_list,
    load_labels,
    total_edge_weight,
)
from homsample import cli, graph
from homsample.graph import (
    EdgeListError,
    LabelError,
    UnlabelledNodeError,
    dump_edge_list,
    stable_argsort,
)
from homsample.graphon import sample_w_random_graph, two_block_graphon
from homsample.shortest_paths import path_dag
from oracles import (
    edge_id,
    random_graph,
    reference_canonical_edges,
    reference_csr,
    reference_dump_edge_list,
    reference_from_arrays,
    reference_load_edge_list,
    reference_load_labels,
)


def test_load_basic():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.node_count == 3
    assert g.edge_count == 2
    assert list(zip(g.edge_i, g.edge_j, g.edge_w)) == [(0, 1, 1.0), (1, 2, 1.0)]


def test_load_merges_duplicates_by_summing():
    g = load_edge_list(io.StringIO("0 1 2.0\n1 0 1.0\n"))
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.edge_w[0] == 3.0


def test_load_comments_blank_lines_and_n_hint():
    g = load_edge_list(io.StringIO("# header\n\n0 1  # trailing\n"), labelled=5)
    assert g.node_count == 5
    assert g.edge_count == 1
    g = load_edge_list(io.StringIO("0 9\n"))
    assert g.node_count == 10


@pytest.mark.parametrize("text,fragment", [
    ("0\n", "line 1"),
    ("0 1 2 3\n", "line 1"),
    ("a b\n", "not numeric"),
    ("0 1\n2 2\n", "self-loop"),
    ("0 1 -2\n", "negative weight"),
    ("-1 2\n", "negative node id"),
    ("0 1\n1 2\n0 1 nan\n", "line 3: non-finite weight"),
    ("0 1\n2 3 inf\n", "line 2: non-finite weight"),
])
def test_load_errors(text, fragment):
    with pytest.raises(EdgeListError, match=fragment):
        load_edge_list(io.StringIO(text))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_arrays_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="non-finite edge weight"):
        Graph.from_arrays(3, [0, 1], [1, 2], [1.0, bad])


@st.composite
def raw_edges(draw):
    """A node count and pair rows over few nodes, so reversed duplicates,
    zero weights and isolated nodes are common, and 1e16 beside 1.0 makes
    sums that depend on their order; no self-loops."""
    n = draw(st.integers(1, 6))
    weight = st.one_of(st.just(0.0), st.sampled_from([0.1, 1 / 3, 1.0, 2.5, 1e16]),
                       st.floats(0.0, 1e6, allow_nan=False))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                         max_size=12))
    return n, [row for row in rows if row[0] != row[1]]


@settings(max_examples=300, deadline=None)
@given(edges=raw_edges())
# one pair three times: the sum depends on the order it is taken in
@example(edges=(2, [(0, 1, 72.90151170763095), (1, 0, 0.00092742392862456),
                    (0, 1, 0.0009679261899246465)]))
def test_from_arrays_matches_dict_reference(edges):
    n, rows = edges
    i, j, w = ([row[k] for row in rows] for k in range(3))
    g = Graph.from_arrays(n, i, j, w)
    want_i, want_j, want_w = reference_canonical_edges(i, j, w)
    assert g.node_count == n
    assert g.edge_i.tolist() == want_i and g.edge_j.tolist() == want_j
    assert g.edge_w.tobytes() == np.array(want_w, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(edges=raw_edges(), weighted=st.booleans())
# a pair three times whose sum depends on the order it is taken in
@example(edges=(3, [(0, 1, 1e16), (1, 0, 1.0), (0, 1, 1.0)]), weighted=True)
@example(edges=(4, []), weighted=True)
# a pair whose weights merge to 0, and isolated nodes above the largest endpoint
@example(edges=(6, [(1, 0, 0.0), (0, 1, 0.0), (2, 1, 2.5)]), weighted=True)
def test_from_arrays_is_bitwise_the_unique_inverse_reference(edges, weighted):
    n, rows = edges
    i, j, w = ([row[k] for row in rows] for k in range(3))
    w = w if weighted else None
    got, want = Graph.from_arrays(n, i, j, w), reference_from_arrays(n, i, j, w)
    assert got == want and got.edge_w.tobytes() == want.edge_w.tobytes()
    assert [a.dtype for a in (got.edge_i, got.edge_j, got.edge_w)] == [np.int64, np.int64,
                                                                       np.float64]


def test_from_arrays_rejects_a_node_count_whose_pair_keys_overflow():
    # with n = 2**33 the key of (2**31, 2**31 + 1) wraps to that of (0, 2**31 + 1)
    tracemalloc.start()
    try:
        for n in (2 ** 33, 3_037_000_500):   # the least n with n * n > 2**63 - 1
            with pytest.raises(ValueError, match=f"node count {n} is too large"):
                Graph.from_arrays(n, [2 ** 31], [2 ** 31 + 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("i, j, w, message", [
    ([0, 1], [1, 2], [1.0], "endpoint and weight arrays must have equal length"),
    ([0, 1], [1], [1.0, 1.0], "endpoint and weight arrays must have equal length"),
    ([0], [3], [1.0], re.escape("node id out of range [0, 3)")),
    ([-1], [1], [1.0], re.escape("node id out of range [0, 3)")),
    ([1], [0], [1.0], "each edge needs edge_i < edge_j"),
    ([1], [1], [1.0], "each edge needs edge_i < edge_j"),
    # node 0's only neighbour would read as 2
    ([1, 0], [2, 1], [1.0, 1.0], "strictly increasing: sorted, with no duplicates"),
    ([0, 0], [2, 1], [1.0, 1.0], "strictly increasing: sorted, with no duplicates"),
    ([0, 0], [1, 1], [1.0, 1.0], "strictly increasing: sorted, with no duplicates"),
    ([0], [1], [0.0], "edge weights must be > 0"),
    ([0], [1], [-1.0], "edge weights must be > 0"),
    ([0], [1], [np.nan], "edge weights must be > 0"),
])
def test_the_constructor_refuses_arrays_out_of_canonical_form(i, j, w, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, i, j, w)


def test_the_constructor_takes_canonical_arrays():
    # a merged weight past the largest float64 is +inf, which from_arrays gives
    g = Graph(3, [0, 0, 1], [1, 2, 2], [1.0, np.inf, 2.0])
    assert g == Graph.from_arrays(3, [0, 2, 2, 1], [1, 0, 0, 2], [1.0, 1e308, 1e308, 2.0])
    assert g.neighbors(0).tolist() == [1, 2]
    assert Graph(3, [], [], []).edge_count == 0


def test_zero_weight_pairs_are_non_edges():
    g = load_edge_list(io.StringIO("0 1 0.0\n1 2 1.0\n"))
    assert g.edge_count == 1
    assert g.node_count == 3


def test_roundtrip_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, n=int(rng.integers(2, 12)), p=0.4, weighted=True)
        assert load_edge_list(io.StringIO(dump_edge_list(g)), labelled=g.node_count) == g


def test_total_edge_weight():
    assert total_edge_weight(Graph.from_edges(3, [])) == 0.0
    assert total_edge_weight(Graph.from_edges(2, [(0, 1, 3.0)])) == 3.0


def test_total_edge_weight_permutation_invariant():
    edges = [(0, 1, 2.0), (1, 2, 0.5), (0, 3, 1.25)]
    w = total_edge_weight(Graph.from_edges(4, edges))
    assert total_edge_weight(Graph.from_edges(4, edges[::-1])) == w


def test_isolated_nodes_are_retained():
    g = load_edge_list(io.StringIO("0 1\n"), labelled=4)
    assert g.node_count == 4
    assert len(g.neighbors(3)) == 0


def test_adjacency_queries():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    assert sorted(g.neighbors(0).tolist()) == [1, 2]
    assert g.degrees().tolist() == [2, 1, 2, 1]
    assert edge_id(g, 2, 0) == edge_id(g, 0, 2) == 1
    assert edge_id(g, 3, 2) == 2
    with pytest.raises(KeyError):
        edge_id(g, 0, 3)


def test_adjacency_is_built_on_first_traversal(karate):
    kg, _ = karate
    g = Graph(kg.node_count, kg.edge_i, kg.edge_j, kg.edge_w)
    assert g._indptr is None and g._nbr is None and g._nbr_eid is None
    path_dag(g, 0)
    built = g._adjacency()
    assert all(a is not None and not a.flags.writeable for a in built)
    assert all(a is b for a, b in zip(built, g._adjacency()))   # kept, not rebuilt


def test_adjacency_arrays_match_the_concatenating_build():
    rng = np.random.default_rng(8)
    graphs = [random_graph(rng, n=n, p=0.5, weighted=True) for n in (1, 2, 5, 13)]
    # past 2^16 nodes the radix sort of edge_j takes a second 16-bit pass
    i = rng.integers(0, 70_000, 5000)
    graphs.append(Graph.from_arrays(70_000, i, (i + rng.integers(1, 70_000, 5000)) % 70_000))
    for g in graphs:
        got, want = g._adjacency(), reference_csr(g)
        assert [a.dtype for a in got] == [np.int64, np.int32, np.int32]
        # the same values in the same order as the stable argsort of both directions
        assert all(a.tobytes() == b.astype(a.dtype).tobytes() for a, b in zip(got, want))


@settings(max_examples=50, deadline=None)
@given(bits=st.integers(0, 40), size=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_stable_argsort_is_numpys_stable_argsort(bits, size, seed):
    # one 16-bit radix pass per digit below the bound, with ties in input order
    bound = 1 << bits
    keys = np.random.default_rng(seed).integers(0, bound, size) // 3
    assert np.array_equal(stable_argsort(keys, bound), np.argsort(keys, kind="stable"))


def test_adjacency_build_holds_one_node_sized_array():
    # indptr is the only node-sized array the build allocates; a bincount,
    # cumsum and concatenation each of n entries held two at once
    n = 16_777_216
    tracemalloc.start()
    try:
        g = Graph(n, [0, 5], [n - 1, n - 1], [1.0, 1.0])
        g._adjacency()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n
    assert g._indptr[[0, 1, 5, 6, n - 1, n]].tolist() == [0, 1, 1, 2, 2, 4]
    assert g.neighbors(n - 1).tolist() == [0, 5]


def test_labels_one_hot():
    s = load_labels(io.StringIO("0 0\n1 0\n2 1\n"), class_count=2, n=3)
    assert s.rows is None and (s.node_count, s.dim) == (3, 2)
    assert s.labels.tolist() == [0, 0, 1]


@pytest.mark.parametrize("text,fragment", [
    ("0 0\n", "missing label for node 1"),
    ("0 0\n1 5\n", "class 5 out of range"),
    ("0 0\n0 1\n1 0\n", "duplicate node 0"),
    ("0 0\n7 1\n", "node 7 out of range"),
])
def test_label_errors(text, fragment):
    with pytest.raises(LabelError, match=fragment):
        load_labels(io.StringIO(text), class_count=2, n=2)


def test_label_view_roundtrip():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 4, size=30)
    s = GraphSignal.from_labels(labels, 4)
    assert np.array_equal(s.labels, labels)
    # a signal holds rows or labels, even rows that are the labels' one-hot rows
    with pytest.raises(ValueError, match="^a signal holds feature rows or labels, not both$"):
        GraphSignal(np.eye(4)[labels], labels)


def test_labels_are_copied_once_at_any_class_count():
    # a labelled signal holds no (nodes, classes) array: at 10^6 classes its one-hot
    # rows would take 160 GB; the labels are copied once (they are frozen)
    n, k = 20_000, 10 ** 6
    labels = np.arange(n, dtype=np.int64) * 50
    tracemalloc.start()
    try:
        s = GraphSignal.from_labels(labels, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n
    assert (s.node_count, s.dim, s.rows) == (n, k, None)
    assert np.array_equal(s.labels, labels) and labels.flags.writeable
    assert not s.labels.flags.writeable
    with pytest.raises(ValueError, match="1-d"):
        GraphSignal.from_labels(labels.reshape(-1, 2), k)
    with pytest.raises(ValueError, match=r"class id out of range \[0, 999950\)"):
        GraphSignal.from_labels(labels, k - 50)


def test_a_class_count_above_the_limit_is_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^'class_count' 16777217 is above the limit "
                                             "of 16777216$"):
            GraphSignal.from_labels(np.zeros(34, dtype=np.int64), 2 ** 24 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_a_class_count_at_the_limit_is_built():
    s = GraphSignal.from_labels([0, 2 ** 24 - 1], 2 ** 24)
    assert (s.node_count, s.dim) == (2, 2 ** 24)


@pytest.mark.parametrize("count", [0, -3, 1.5, True, None, "2"])
def test_a_class_count_below_one_or_not_an_integer_is_refused(count):
    message = re.escape(f"'class_count' is not an integer >= 1: {count!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        GraphSignal.from_labels([], count)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_labels(io.StringIO("0 0\n"), count, 1)


@pytest.mark.parametrize("via", ["manifest", "flags"])
def test_a_huge_class_count_is_an_input_error(tmp_path, capsys, via):
    data = karate_manifest_path().parent
    (tmp_path / "m.json").write_text(json.dumps({
        "name": "karate", "edge_file": str(data / "karate_edges.txt"),
        "label_file": str(data / "karate_labels.txt"), "class_count": 2 ** 24 + 1}))
    args = (["--manifest", str(tmp_path / "m.json")] if via == "manifest" else
            ["--edges", str(data / "karate_edges.txt"), "--labels",
             str(data / "karate_labels.txt"), "--classes", str(2 ** 24 + 1)])
    tracemalloc.start()
    try:
        assert cli.main(["homophily", *args]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert capsys.readouterr().err == ("error: 'class_count' 16777217 is above the limit "
                                       "of 16777216\n")


def test_signal_is_immutable():
    s = GraphSignal.from_labels([0, 1], 2)
    with pytest.raises(ValueError):
        s.labels[0] = 1
    s = GraphSignal(np.eye(2))
    with pytest.raises(ValueError):
        s.rows[0, 0] = 5.0


def test_karate_fixture(karate):
    g, s = karate
    assert g.node_count == 34
    assert g.edge_count == 78
    # the fixture carries Zachary's interaction weights; see README
    assert total_edge_weight(g) == 231.0
    assert s.dim == 2
    assert np.bincount(s.labels).tolist() == [17, 17]
    # the fixture's comment lines and all, as the per-line references read it
    manifest = karate_manifest_path()
    spec = json.loads(manifest.read_text(encoding="utf-8"))
    edge_file, label_file = manifest.parent / spec["edge_file"], manifest.parent / spec["label_file"]
    assert g == reference_load_edge_list(edge_file, n_hint=34)
    assert np.array_equal(s.labels, reference_load_labels(label_file, 2, 34).labels)


def test_manifest_round(tmp_path):
    g, s, name = load_dataset(karate_manifest_path())
    assert name == "karate"
    assert g.node_count == s.node_count == 34
    with pytest.raises(ValueError, match="missing field"):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x"}')
        load_dataset(p)


@pytest.mark.parametrize("content,fragment", [
    ("5", "is not a JSON object"),
    ('["e.txt", "l.txt"]', "is not a JSON object"),
    ('{"name": "x", "edge_file": 5, "label_file": "l.txt", "class_count": 2}', "'edge_file' is not a string"),
    ('{"name": "x", "edge_file": "e.txt", "label_file": null, "class_count": 2}', "'label_file' is not a string"),
    ('{"name": "x", "edge_file": "e.txt", "label_file": "l.txt", "class_count": 1.9}', "'class_count'"),
    ('{"name": "x", "edge_file": "e.txt", "label_file": "l.txt", "class_count": true}', "'class_count'"),
    ('{"name": "x", "edge_file": "e.txt", "label_file": "l.txt", "class_count": "2"}', "'class_count'"),
    ('{"name": "x", "edge_file": "e.txt", "label_file": "l.txt", "class_count": 0}', "'class_count'"),
])
def test_malformed_manifest_is_an_error(tmp_path, capsys, content, fragment):
    (tmp_path / "e.txt").write_text("0 1\n")
    (tmp_path / "l.txt").write_text("0 0\n1 1\n")
    manifest = tmp_path / "m.json"
    manifest.write_text(content)
    with pytest.raises(ValueError, match=fragment):
        load_dataset(manifest)
    assert cli.main(["info", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("bad", ["edges", "labels"])
def test_decode_error_names_the_byte_offset_in_the_file(tmp_path, capsys, bad):
    # past the first parse chunk, so an error counted from a chunk's start would show
    n = 40_000
    files = {"edges": "".join(f"{v} {v + 1}\n" for v in range(n - 1)).encode(),
             "labels": "".join(f"{v} {v % 2}\n" for v in range(n)).encode()}
    offset = len(files[bad]) - 5 * 1000
    assert offset > graph._CHUNK_CHARS
    files[bad] = files[bad][:offset] + b"\xff" + files[bad][offset + 1:]
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        if bad == "edges":
            load_edge_list(paths["edges"])
        else:
            load_labels(paths["labels"], class_count=2, n=n)
    assert exc.value.start == offset
    assert cli.main(["homophily", "--edges", str(paths["edges"]), "--labels", str(paths["labels"]),
                     "--classes", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"position {offset}" in err


def test_dataset_keeps_isolated_highest_node(tmp_path):
    # the edge list alone cannot say that node 4 exists; the label file does
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    (tmp_path / "e.txt").write_text(dump_edge_list(g))
    (tmp_path / "l.txt").write_text("".join(f"{v} {v % 2}\n" for v in range(5)))
    (tmp_path / "m.json").write_text(
        '{"name": "iso", "edge_file": "e.txt", "label_file": "l.txt", "class_count": 2}')
    g2, s2, name = load_dataset(tmp_path / "m.json")
    assert g2 == g and name == "iso"
    assert s2.labels.tolist() == [0, 1, 0, 1, 0]


def test_edges_and_labels_flags_load_what_the_manifest_loads(tmp_path, capsys):
    # the label file sizes the graph on both paths, so labelled isolated nodes 3 and 4 stay
    edges, labels = tmp_path / "e.txt", tmp_path / "l.txt"
    edges.write_text("0 1\n1 2\n")
    labels.write_text("".join(f"{v} {v % 2}\n" for v in range(5)))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"name": str(edges), "edge_file": "e.txt",
                                    "label_file": "l.txt", "class_count": 2}))
    flags = ["--edges", str(edges), "--labels", str(labels), "--classes", "2"]
    g, s, _ = cli._load_from_flags(cli.build_parser().parse_args(["homophily", *flags]))
    g2, s2, _ = load_dataset(manifest)
    assert g == g2 and g.node_count == 5
    assert np.array_equal(s.labels, s2.labels) and s.dim == s2.dim
    capsys.readouterr()
    assert cli.main(["homophily", *flags]) == 0
    via_flags = capsys.readouterr().out
    assert cli.main(["homophily", "--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out == via_flags


def test_labels_without_classes_fails_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    assert cli.main(["homophily", "--edges", missing, "--labels", missing]) == 2
    assert "--labels requires --classes" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["manifest", "cli"])
def test_unlabelled_endpoint_is_rejected_before_allocating(tmp_path, capsys, via):
    # node 5,000,000 would size the graph's node arrays at about 80 MB before the
    # missing label was noticed
    (tmp_path / "e.txt").write_text("0 1\n0 5000000\n")
    (tmp_path / "l.txt").write_text("0 0\n1 1\n")
    (tmp_path / "m.json").write_text(
        '{"name": "far", "edge_file": "e.txt", "label_file": "l.txt", "class_count": 2}')
    message = "node 5000000 has no label: the label file names 2 nodes"
    tracemalloc.start()
    try:
        if via == "manifest":
            with pytest.raises(UnlabelledNodeError, match=message):
                load_dataset(tmp_path / "m.json")
        else:
            assert cli.main(["homophily", "--edges", str(tmp_path / "e.txt"),
                             "--labels", str(tmp_path / "l.txt"), "--classes", "2"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    if via == "cli":
        assert message in capsys.readouterr().err
    assert issubclass(UnlabelledNodeError, ValueError)


@pytest.mark.parametrize("node", [10 ** 12, 2 ** 31, 2 ** 24])
def test_edge_list_without_labels_above_the_node_limit_fails_early(tmp_path, capsys, node):
    (tmp_path / "e.txt").write_text(f"0 1\n# far\n{node} 2\n0 {node}\n")
    tracemalloc.start()
    try:
        assert cli.main(["info", "--edges", str(tmp_path / "e.txt")]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 3: node id {node} exceeds 16777215") and "--labels" in err
    with pytest.raises(EdgeListError, match="line 3"):
        load_edge_list(tmp_path / "e.txt")


# -- the bulk loaders against the per-line references in oracles.py --------

SEPARATORS = ["\t", "\r", "\r\n", "\x0b", "\x0c", "\xa0", "\x85", " "]
ODD_TOKENS = ["+1", "-0", "1_0", "０", "1.0", "1e3", "0x10", "nan", "inf", "-1",
              "99999999999999999999"]


def outcome(load):
    try:
        return load()
    except Exception as exc:   # the loaders must fail alike, whatever the failure
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    elif isinstance(want, Graph):
        assert isinstance(got, Graph) and got == want
        assert got.edge_w.tobytes() == want.edge_w.tobytes()
    else:
        assert isinstance(got, GraphSignal)
        assert np.array_equal(got.labels, want.labels) and got.dim == want.dim


PLAIN_IDS = ["0", "1", "2", "3", "17"]
PLAIN_WEIGHTS = ["1", "0.5", "2.25", "0", "1e3", "0.1",
                 # each side of _FieldTable.decimals' bounds, and tokens only float() reads
                 "1.", ".5", "007.50", "123456789012345", "1234567890123456",
                 "0.30000000000000004", "1e-5", "-0.0", "1_0.5", "１.５"]


@st.composite
def edge_rows(draw):
    """Rows of a well-formed edge list: 2 or 3 fields each, no self-loops."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.sampled_from(PLAIN_IDS))
        j = draw(st.sampled_from([t for t in PLAIN_IDS if t != i]))
        rows.append([i, j, draw(st.sampled_from(PLAIN_WEIGHTS))][:draw(st.sampled_from([2, 3]))])
    return rows


@st.composite
def label_rows(draw):
    """Rows of a well-formed label file for nodes 0..k-1 and classes 0..1."""
    nodes = draw(st.permutations(range(draw(st.integers(0, 4)))))
    return [[str(v), draw(st.sampled_from(["0", "1"]))] for v in nodes]


@st.composite
def texts(draw, rows):
    """Well-formed rows between blank and comment lines, with at most one
    kind of flaw: odd tokens, every separator, rows that share a line, or
    repeated rows."""
    flaw = draw(st.sampled_from([None, "tokens", "separators", "joins", "repeats"]))
    rows = draw(rows)
    plain = sorted({t for row in rows for t in row}) or ["0"]
    lines = []
    for n, row in enumerate(rows):
        filler = draw(st.sampled_from([None] * 4 + ["", " ", "\t", "#", "# 0 1", "# é"]))
        if filler is not None:
            lines.append(filler)
        if flaw == "tokens" and draw(st.booleans()):
            row = draw(st.lists(st.sampled_from(plain + ODD_TOKENS), min_size=1, max_size=4))
        elif flaw == "repeats" and n and draw(st.booleans()):
            row = rows[draw(st.integers(0, n - 1))]
        sep = draw(st.sampled_from(SEPARATORS if flaw == "separators" else [" ", "\t", "  "]))
        pad = draw(st.sampled_from(["{}", " {}", "{} # x", "\t{} "]))
        lines.append(pad.format(sep.join(row)))
    # after "\r", "\x85" or " " a stream's line goes on; a file's ends at "\r"
    ends = ["\n", "\r\n", "\r", "\x85", " "] if flaw == "joins" else ["\n"]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    return text[:-1] if lines and draw(st.booleans()) else text


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("texts") / "input.txt"


def sources(text, path):
    """The text as a stream, as a file holding its exact bytes and as a
    list of lines without line ends."""
    path.write_bytes(text.encode("utf-8"))
    return (lambda: io.StringIO(text)), (lambda: path), (lambda: text.split("\n"))


def assert_edge_list_matches_reference(text, path, labelled):
    for source in sources(text, path):
        want = outcome(lambda: reference_load_edge_list(source(), n_hint=labelled, labelled=labelled))
        got = outcome(lambda: load_edge_list(source(), labelled=labelled))
        assert_same_outcome(got, want)


@settings(max_examples=300, deadline=None)
@given(text=texts(edge_rows()), labelled=st.sampled_from([None, 4, 100]))
def test_bulk_edge_list_matches_per_line_reference(text_file, text, labelled):
    assert_edge_list_matches_reference(text, text_file, labelled)


@settings(max_examples=300, deadline=None)
@given(text=texts(edge_rows()), labelled=st.sampled_from([None, 4, 100]),
       chunk=st.integers(1, 12))
def test_bulk_edge_list_in_chunks_of_a_few_characters_matches_reference(text_file, text,
                                                                        labelled, chunk):
    # every line a chunk of its own or a few to a chunk: errors, their line numbers and
    # the line of the largest id must not see where the text was cut
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_CHUNK_CHARS", chunk)
        pieces, lines = zip(*graph._line_chunks(text))
        starts = np.cumsum([0, *map(len, pieces)])[:-1]
        assert "".join(pieces) == text and all(piece.endswith("\n") for piece in pieces[:-1])
        assert list(lines) == [text[:start].count("\n") for start in starts]
        assert_edge_list_matches_reference(text, text_file, labelled)


@settings(max_examples=300, deadline=None)
@given(token=st.text("0123456789", min_size=1, max_size=17).flatmap(
    lambda digits: st.sampled_from([digits] + [digits[:k] + "." + digits[k:]
                                               for k in range(len(digits) + 1)])))
@example(token="96.48064786969077")   # 16 digits: as a float first, they would round twice
@example(token="0.1")
def test_decimals_read_digits_and_a_point_as_float_does(token):
    t = graph._field_table(f"{token} 1.5\n{token}\n")
    value, ok = t.decimals(np.arange(3))
    assert ok.all()
    assert value.tobytes() == np.array([float(token), 1.5, float(token)]).tobytes()


@settings(max_examples=300, deadline=None)
@given(text=texts(label_rows()), class_count=st.sampled_from([2, 3]),
       n=st.sampled_from([3, 4]))
def test_bulk_labels_match_per_line_reference(text_file, text, class_count, n):
    for source in sources(text, text_file):
        want = outcome(lambda: reference_load_labels(source(), class_count, n))
        got = outcome(lambda: load_labels(source(), class_count, n))
        assert_same_outcome(got, want)
    # read once for sizing and parsing, as load_dataset does
    labels = graph._field_table(graph._read(text_file))
    with open(text_file, encoding="utf-8") as fh:
        assert len(labels.line) == sum(1 for raw in fh if raw.split("#", 1)[0].strip())
    assert_same_outcome(outcome(lambda: graph._label_signal(labels, class_count, n)),
                        outcome(lambda: reference_load_labels(text_file, class_count, n)))


@pytest.fixture(scope="module")
def w_random_44k():
    w, _ = two_block_graphon(0.008, 0.003)
    g, _ = sample_w_random_graph(w, 4000, np.random.default_rng([1, 0]))
    assert g.edge_count > 40_000
    return g


def assert_44k_dump_variants_match_reference(tmp_path, g):
    lines = dump_edge_list(g).splitlines(keepends=True)
    variants = {
        "plain": lines,
        "every other weight dropped": [line.rsplit(" ", 1)[0] + "\n" if k % 2 else line
                                       for k, line in enumerate(lines)],
        "signed first ids": ["+" + line for line in lines],
    }
    for name, variant in variants.items():
        text = "".join(variant)
        path = tmp_path / "edges.txt"
        path.write_text(text, encoding="utf-8")
        want = reference_load_edge_list(path, n_hint=g.node_count)
        assert want == g, name
        for source in (path, io.StringIO(text)):
            got = load_edge_list(source, labelled=g.node_count)
            assert got == want and got.edge_w.tobytes() == want.edge_w.tobytes(), name
    # bad lines in the first and the last chunk, named by their line in the file
    big = f"0 {2 ** 24}\n"
    flawed = {"late self-loop": (lines[:-3] + ["7 7\n"] + lines[-3:], len(lines) - 2),
              "late largest id": (lines[:-3] + [big] + lines[-3:], len(lines) - 2),
              "largest id early and late": (lines[:3] + [big] + lines[3:-3] + [big] + lines[-3:], 4)}
    for name, (variant, line) in flawed.items():
        path.write_text("".join(variant), encoding="utf-8")
        want = outcome(lambda: reference_load_edge_list(path))
        assert isinstance(want, EdgeListError) and str(want).startswith(f"line {line}:"), name
        assert_same_outcome(outcome(lambda: load_edge_list(path)), want)


def test_bulk_load_of_a_44k_edge_w_random_dump(tmp_path, w_random_44k):
    assert_44k_dump_variants_match_reference(tmp_path, w_random_44k)


def test_bulk_load_of_a_44k_edge_w_random_dump_in_small_chunks(tmp_path, w_random_44k,
                                                               monkeypatch):
    # about 1,200 cuts, at shifting offsets into the lines; at 7 characters a chunk
    # each of the test's loads would take 20 s
    monkeypatch.setattr(graph, "_CHUNK_CHARS", 509)
    assert_44k_dump_variants_match_reference(tmp_path, w_random_44k)


@pytest.mark.parametrize("graph_spec, edges, bound", [
    # srs-variance's graph: 117 B per edge with np.unique's inverse and 2**18-character chunks
    ((0.008, 0.003, 4_000, [7, 0]), 43_782, 96),
    # 255 B per edge parsed whole with float() of every weight token; 100 B per
    # edge with np.unique's inverse
    ((0.004, 0.0025, 10_000, [1, 0]), 163_195, 80),
], ids=["44k", "163k"])
def test_load_of_a_w_random_dump_peaks_under_its_bytes_per_edge(tmp_path, graph_spec, edges, bound):
    p_in, p_out, n, seed = graph_spec
    w, _ = two_block_graphon(p_in, p_out)
    g, _ = sample_w_random_graph(w, n, np.random.default_rng(seed))
    assert g.edge_count == edges
    path = tmp_path / "edges.txt"
    path.write_text(dump_edge_list(g), encoding="utf-8")
    tracemalloc.start()
    try:
        got = load_edge_list(path, labelled=g.node_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == g
    assert peak <= bound * g.edge_count


def test_dump_matches_scalar_formatting():
    weights = [0.1, 1 / 3, 5e-324, 1e300, 2.0, 1e16, 123456.789, 7e-10]
    n = 100_000
    g = Graph.from_edges(n, [(v, n - 1 - v, w) for v, w in enumerate(weights)])
    text = dump_edge_list(g)
    assert text == reference_dump_edge_list(g)
    assert text.splitlines()[0] == "0 99999 0.1"
    assert load_edge_list(io.StringIO(text)).edge_w.tobytes() == g.edge_w.tobytes()


def test_load_dataset_reads_each_file_once(tmp_path, monkeypatch):
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    (tmp_path / "e.txt").write_text(dump_edge_list(g))
    (tmp_path / "l.txt").write_text("".join(f"{v} {v % 2}\n" for v in range(5)))
    (tmp_path / "m.json").write_text(
        '{"name": "once", "edge_file": "e.txt", "label_file": "l.txt", "class_count": 2}')
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(graph, "open", counting_open, raising=False)
    g2, s2, _ = load_dataset(tmp_path / "m.json")
    assert g2 == g and s2.labels.tolist() == [0, 1, 0, 1, 0]
    assert sorted(opened) == ["e.txt", "l.txt", "m.json"]


def test_adjacency_refuses_ids_past_int32_before_it_allocates():
    # 2^31 nodes would take 16 GiB of indptr: the guard comes first
    g = Graph(2**31, [0], [1], [1.0])
    # 2^30 copies of one edge, as broadcast views of no memory: 2^31 arcs
    arcs = Graph.__new__(Graph)
    arcs._own(2, *(np.broadcast_to(x, (2**30,)) for x in (np.int64(0), np.int64(1), 1.0)))
    for big in (g, arcs):
        with pytest.raises(ValueError, match="32-bit traversal ids"):
            big._adjacency()
        assert big._indptr is None
