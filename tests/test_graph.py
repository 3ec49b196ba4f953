import numpy as np
import pytest

from cemnet.graph import GraphFormatError, InferredGraph, read_graph_csv


def _score_map(g):
    return dict(zip(g.edges, g.score.tolist()))


def _reference_views(n, pairs, scores):
    """Edges, scores, in-sets and out-lists as the tuple/dict graph built them."""
    edges = set(pairs)
    score_of = dict(zip(pairs, scores))  # a repeated edge keeps its last score
    ins: dict[int, set[int]] = {}
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(edges):
        ins.setdefault(j, set()).add(i)
        adj[i].append(j)
    return edges, score_of, ins, adj


def test_array_and_tuple_construction_agree(rng):
    for trial in range(40):
        n = int(rng.integers(1, 30))
        n_pairs = int(rng.integers(0, 3 * n * n // 2 + 1))
        src = rng.integers(0, n, size=n_pairs)
        dst = rng.integers(0, n, size=n_pairs)
        keep = src != dst
        arr = np.column_stack([src[keep], dst[keep]])
        if trial % 2:
            arr = arr.astype(np.int32)
        pairs = [tuple(p) for p in arr.tolist()]
        vals = rng.uniform(size=len(pairs))
        edges, score_of, ins, adj = _reference_views(n, pairs, vals.tolist())
        for g in (InferredGraph(n, arr, vals), InferredGraph(n, pairs, vals.tolist()),
                  InferredGraph(n, iter(pairs), list(vals))):
            assert g.edges == edges
            assert _score_map(g) == score_of
            assert g.n_edges == len(edges)
            assert g.in_sets == ins
            assert g.out_adj == adj
            assert list(zip(g.src.tolist(), g.dst.tolist())) == sorted(edges)
            assert all(e in g for e in edges)
        plain = InferredGraph(n, arr)
        assert plain.edges == edges and plain.score is None


def test_non_edges():
    g = InferredGraph(3, np.array([[0, 1]]), np.array([0.25]))
    assert (0, 1) in g and (1, 0) not in g and (5, 0) not in g and (0, -1) not in g
    assert g.score.tolist() == [0.25]
    empty = InferredGraph(4, [])
    assert empty.n_edges == 0 and empty.edges == frozenset()
    assert empty.in_sets == {} and empty.out_adj == [[], [], [], []]


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (2, 2)], "self-loop on node 2"),
    ([(0, 1), (-1, 2)], r"edge \(-1, 2\) outside of 0\.\.3"),
    ([(1, -2)], r"edge \(1, -2\) outside of 0\.\.3"),
    ([(0, 4), (1, 2)], r"edge \(0, 4\) outside of 0\.\.3"),
    ([(4, 4)], "self-loop on node 4"),
])
def test_bad_edges_are_named(edges, message):
    with pytest.raises(ValueError, match=message):
        InferredGraph(4, edges)
    with pytest.raises(ValueError, match=message):
        InferredGraph(4, np.array(edges))


def test_scores_must_align():
    with pytest.raises(ValueError, match="2 scores for 3 edges"):
        InferredGraph(4, [(0, 1), (1, 2), (2, 3)], [0.5, 0.5])


def test_duplicate_edge_keeps_last_score():
    g = InferredGraph(3, [(0, 1), (1, 2), (0, 1), (2, 0), (0, 1)],
                      [0.2, 0.5, 0.9, 0.4, 0.7])
    assert g.n_edges == 3
    assert _score_map(g) == {(0, 1): 0.7, (1, 2): 0.5, (2, 0): 0.4}


def test_csv_repeated_row_keeps_last_given_score(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("src,dst,q\na,b,0.2\nb,c,0.5\na,b,0.3\na,b\nc,a\n")
    g = read_graph_csv(path, ["a", "b", "c"])
    assert g.n_edges == 3
    assert _score_map(g) == {(0, 1): 0.3, (1, 2): 0.5, (2, 0): 1.0}
    unscored = tmp_path / "u.csv"
    unscored.write_text("src,dst\na,b\n")
    assert read_graph_csv(unscored, ["a", "b"]).score is None


def test_edge_view_is_a_set():
    g = InferredGraph(5, [(3, 1), (0, 4), (0, 2), (2, 0)])
    want = frozenset({(0, 2), (0, 4), (2, 0), (3, 1)})
    view = g.edges
    assert view == want and want == view
    assert view != want | {(1, 2)} and want | {(1, 2)} != view
    assert len(view) == 4 and list(view) == sorted(want)
    assert view <= want and view < want | {(1, 2)} and not view < want
    assert view & {(0, 2), (1, 1)} == {(0, 2)} == {(1, 1), (0, 2)} & view
    assert type(view & want) is frozenset and type(view | {(1, 2)}) is frozenset
    assert view | {(1, 2)} == want | {(1, 2)}
    assert all(e in view for e in want) and (1, 0) not in view
    assert (np.int64(0), np.int32(2)) in view
    for bad in [(5, 0), (0, 5), (-1, 2), (2, -5), (0, 2, 1), (0,), "ab", 3, None, ("0", "2")]:
        assert bad not in view and bad not in g
    assert InferredGraph(5, []).edges == frozenset()


@pytest.mark.parametrize("row,message", [
    ("b,b", "self-loop on uid 'b'"),
    ("b,a,nan", "bad score 'nan'"),
    ("b,a,-inf", "bad score '-inf'"),
    ("b,a,1e400", "bad score '1e400'"),
    ("b,a,high", "bad score 'high'"),
])
def test_csv_bad_row_is_named(tmp_path, row, message):
    path = tmp_path / "g.csv"
    path.write_text(f"src,dst,q\na,b,0.5\n{row}\n")
    with pytest.raises(GraphFormatError, match=rf"g\.csv: row 3: {message}"):
        read_graph_csv(path, ["a", "b"])
    # a score quoted across lines 2-3 puts the bad row on line 4
    path.write_text(f'src,dst,q\na,b,"0.5\n"\n{row}\n')
    with pytest.raises(GraphFormatError, match=rf"g\.csv: row 4: {message}"):
        read_graph_csv(path, ["a", "b"])
