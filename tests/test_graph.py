import io
import tracemalloc

import numpy as np
import pytest

from homsample import (
    DatasetManifest,
    Graph,
    GraphSignal,
    dump_edge_list,
    karate_manifest_path,
    load_dataset,
    load_edge_list,
    load_labels,
    total_edge_weight,
)
from homsample import cli
from homsample.graph import EdgeListError, LabelError, UnlabelledNodeError


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
    g = load_edge_list(io.StringIO("# header\n\n0 1  # trailing\n"), n_hint=5)
    assert g.node_count == 5
    assert g.edge_count == 1
    # n_hint smaller than max id + 1 is ignored
    g = load_edge_list(io.StringIO("0 9\n"), n_hint=3)
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


def test_zero_weight_pairs_are_non_edges():
    g = load_edge_list(io.StringIO("0 1 0.0\n1 2 1.0\n"))
    assert g.edge_count == 1
    assert g.node_count == 3


def test_roundtrip_identity():
    rng = np.random.default_rng(3)
    from oracles import random_graph

    for _ in range(20):
        g = random_graph(rng, n=int(rng.integers(2, 12)), p=0.4, weighted=True)
        assert load_edge_list(io.StringIO(dump_edge_list(g)), n_hint=g.node_count) == g


def test_total_edge_weight():
    assert total_edge_weight(Graph.from_edges(3, [])) == 0.0
    assert total_edge_weight(Graph.from_edges(2, [(0, 1, 3.0)])) == 3.0


def test_total_edge_weight_permutation_invariant():
    edges = [(0, 1, 2.0), (1, 2, 0.5), (0, 3, 1.25)]
    w = total_edge_weight(Graph.from_edges(4, edges))
    assert total_edge_weight(Graph.from_edges(4, edges[::-1])) == w


def test_isolated_nodes_are_retained():
    g = load_edge_list(io.StringIO("0 1\n"), n_hint=4)
    assert g.node_count == 4
    assert len(g.neighbors(3)) == 0


def test_adjacency_queries():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    assert sorted(g.neighbors(0).tolist()) == [1, 2]
    assert g.degrees().tolist() == [2, 1, 2, 1]
    assert g.edge_id(2, 0) == g.edge_id(0, 2)
    assert g.has_edge(3, 2) and not g.has_edge(0, 3)
    with pytest.raises(KeyError):
        g.edge_id(0, 3)


def test_labels_one_hot():
    s = load_labels(io.StringIO("0 0\n1 0\n2 1\n"), class_count=2, n=3)
    assert s.rows.tolist() == [[1, 0], [1, 0], [0, 1]]
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
    # rows inconsistent with labels are rejected
    rows = np.array(s.rows)
    rows.flags.writeable = True
    rows[0] = [0.5, 0.5, 0, 0]
    with pytest.raises(ValueError, match="one-hot"):
        GraphSignal(rows, labels)


def test_signal_is_immutable():
    s = GraphSignal.from_labels([0, 1], 2)
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


def test_manifest_round(tmp_path):
    m = DatasetManifest.load(karate_manifest_path())
    assert m.name == "karate"
    g, s = m.load_dataset()
    assert g.node_count == s.node_count == 34
    with pytest.raises(ValueError, match="missing field"):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x"}')
        DatasetManifest.load(p)


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
