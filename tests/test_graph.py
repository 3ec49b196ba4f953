import numpy as np
import pytest

from cemnet.graph import GraphFormatError, InferredGraph, read_graph_csv


def _score_map(g):
    return dict(zip(g.edges, g.score.tolist()))


def _reference_views(n, pairs, scores):
    """Edges, scores and out-lists as the tuple/dict graph built them."""
    edges = set(pairs)
    score_of = dict(zip(pairs, scores))  # a repeated edge keeps its last score
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(edges):
        adj[i].append(j)
    return edges, score_of, adj


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
        edges, score_of, adj = _reference_views(n, pairs, vals.tolist())
        for g in (InferredGraph(n, arr, vals), InferredGraph(n, pairs, vals.tolist()),
                  InferredGraph(n, iter(pairs), list(vals))):
            assert g.edges == tuple(sorted(edges))
            assert _score_map(g) == score_of
            assert g.n_edges == len(edges)
            assert g.out_adj == adj
            assert g.keys.tolist() == [i * n + j for i, j in sorted(edges)]
        plain = InferredGraph(n, arr)
        assert plain.edges == tuple(sorted(edges)) and plain.score is None


def test_non_edges():
    g = InferredGraph(3, np.array([[0, 1]]), np.array([0.25]))
    assert g.edges == ((0, 1),) and g.keys.tolist() == [1]
    assert g.score.tolist() == [0.25]
    empty = InferredGraph(4, [])
    assert empty.n_edges == 0 and empty.edges == () and empty.keys.tolist() == []
    assert empty.out_adj == [[], [], [], []]


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


def _graph_arrays(g):
    return g.keys, g.src, g.dst, g.score


def test_ascending_shuffled_and_repeated_edges_build_one_graph(rng):
    n = 40
    keys = rng.choice(n * n, size=300, replace=False)
    keys = np.sort(keys[keys // n != keys % n])
    edges = np.column_stack(np.divmod(keys, n))
    scores = rng.uniform(size=len(keys))
    perm = rng.permutation(len(keys))
    ascending = InferredGraph(n, edges, scores)
    shuffled = InferredGraph(n, edges[perm], scores[perm])
    # every edge a second time, first with a decoy score: the last score wins,
    # also where the repeats sit side by side in ascending order
    repeated = InferredGraph(n, np.r_[edges[perm], edges], np.r_[scores[perm] + 1.0, scores])
    adjacent = InferredGraph(n, np.repeat(edges, 2, axis=0),
                             np.column_stack([scores + 1.0, scores]).ravel())
    for g in (ascending, shuffled, repeated, adjacent):
        for got, want in zip(_graph_arrays(g), (keys, keys // n, keys % n, scores)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_graph_keeps_no_reference_to_caller_arrays(order):
    edges = np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64)
    scores = np.array([0.6, 0.7, 0.8])
    if order == "shuffled":
        edges, scores = edges[::-1].copy(), scores[::-1].copy()
    g = InferredGraph(3, edges, scores)
    for arr in _graph_arrays(g):
        assert not np.shares_memory(arr, edges) and not np.shares_memory(arr, scores)
    edges[:] = [[1, 0], [2, 1], [0, 2]]
    scores[:] = 0.0
    assert g.edges == ((0, 1), (1, 2), (2, 0))
    assert _score_map(g) == {(0, 1): 0.6, (1, 2): 0.7, (2, 0): 0.8}


def test_csv_repeated_row_keeps_last_given_score(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("src,dst,q\na,b,0.2\nb,c,0.5\na,b,0.3\na,b\nc,a\n")
    g = read_graph_csv(path, ["a", "b", "c"])
    assert g.n_edges == 3
    assert _score_map(g) == {(0, 1): 0.3, (1, 2): 0.5, (2, 0): 1.0}
    unscored = tmp_path / "u.csv"
    unscored.write_text("src,dst\na,b\n")
    assert read_graph_csv(unscored, ["a", "b"]).score is None


def test_edges_are_int_pairs_in_key_order():
    g = InferredGraph(5, np.array([(3, 1), (0, 4), (0, 2), (2, 0)], dtype=np.int32))
    assert g.edges == ((0, 2), (0, 4), (2, 0), (3, 1))
    assert all(type(x) is int for e in g.edges for x in e)


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
