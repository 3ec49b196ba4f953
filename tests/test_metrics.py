import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemnet.graph import InferredGraph
from cemnet.metrics import EvalReport, classification_scores, graph_stats, roc_auc


def _random_graph(rng, n, density):
    edges = [
        (i, j) for i in range(n) for j in range(n)
        if i != j and rng.uniform() < density
    ]
    return InferredGraph(n, edges)


def test_perfect_prediction(rng):
    truth = _random_graph(rng, 10, 0.2)
    rep = classification_scores(truth, truth)
    assert rep.precision == rep.recall == 1.0
    assert rep.auc == 1.0
    assert rep.fp == rep.fn == 0


def test_complement_prediction():
    n = 6
    truth = InferredGraph(n, [(0, 1), (2, 3)])
    complement = InferredGraph(
        n,
        [
            (i, j) for i in range(n) for j in range(n)
            if i != j and (i, j) not in truth.edges
        ],
    )
    rep = classification_scores(complement, truth)
    assert rep.precision == 0.0 and rep.recall == 0.0


def test_user_set_mismatch():
    with pytest.raises(ValueError, match="user sets differ"):
        classification_scores(InferredGraph(3, []), InferredGraph(4, []))


def test_auc_of_truth_indicator_is_one(rng):
    truth = _random_graph(rng, 12, 0.15)
    rep = classification_scores(truth, truth, scores=None)
    assert rep.auc == 1.0


def _trapezoid_auc(labels, scores):
    order = np.argsort(-scores, kind="stable")
    labels = labels[order]
    scores = scores[order]
    p = labels.sum()
    n = len(labels) - p
    tps = fps = 0
    pts = [(0.0, 0.0)]
    k = 0
    while k < len(labels):
        j = k
        while j + 1 < len(labels) and scores[j + 1] == scores[k]:
            j += 1
        tps += int(labels[k : j + 1].sum())
        fps += (j - k + 1) - int(labels[k : j + 1].sum())
        pts.append((fps / n, tps / p))
        k = j + 1
    xs, ys = zip(*pts)
    return float(np.trapezoid(ys, xs))


def test_rank_auc_equals_trapezoid(rng):
    for _ in range(30):
        n = 200
        labels = rng.uniform(size=n) < 0.3
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.uniform(size=n), 1)  # coarse grid forces ties
        assert roc_auc(labels, scores) == pytest.approx(
            _trapezoid_auc(labels, scores), abs=1e-9
        )


def test_stats_three_cycle():
    g = InferredGraph(3, [(0, 1), (1, 2), (2, 0)])
    st = graph_stats(g)
    assert st.diameter == 2
    assert st.avg_shortest_path == pytest.approx(1.5)
    assert st.max_scc_pct == 100.0
    assert st.max_scc_size == 3


def test_stats_star():
    g = InferredGraph(4, [(0, 1), (0, 2), (0, 3)])
    st = graph_stats(g)
    assert st.max_out_degree == 3
    assert st.max_in_degree == 1
    assert st.diameter == 1
    assert st.avg_shortest_path == pytest.approx(1.0)
    assert st.max_scc_pct == 0.0


def test_stats_edgeless():
    st = graph_stats(InferredGraph(5, []))
    assert st.n_edges == 0
    assert st.diameter == 0
    assert st.avg_shortest_path is None
    assert st.max_scc_pct == 0.0


def _floyd_warshall(n, edges):
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i, j in edges:
        d[i][j] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + d[k][j]
                if alt < row[j]:
                    row[j] = alt
    return d


def test_distances_match_floyd_warshall(rng):
    for _ in range(10):
        n = int(rng.integers(5, 50))
        g = _random_graph(rng, n, float(rng.uniform(0.02, 0.2)))
        st = graph_stats(g)
        d = _floyd_warshall(n, g.edges)
        finite = [
            d[i][j] for i in range(n) for j in range(n)
            if i != j and d[i][j] != float("inf")
        ]
        if finite:
            assert st.diameter == max(finite)
            assert st.avg_shortest_path == pytest.approx(np.mean(finite))
        else:
            assert st.diameter == 0 and st.avg_shortest_path is None
        # SCC oracle from mutual reachability
        mutual = {
            frozenset(c)
            for c in _scc_bruteforce(n, d)
            if len(c) >= 2
        }
        want = max((len(c) for c in mutual), default=0)
        assert st.max_scc_size == want


def _scc_bruteforce(n, d):
    comp = {}
    for i in range(n):
        key = frozenset(
            j for j in range(n)
            if d[i][j] != float("inf") and d[j][i] != float("inf")
        ) | {i}
        comp.setdefault(key, set()).add(i)
    out = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        members = {i} | {
            j for j in range(n)
            if d[i][j] != float("inf") and d[j][i] != float("inf")
        }
        members = {
            j for j in members
            if j == i or (d[i][j] != float("inf") and d[j][i] != float("inf"))
        }
        out.append(members)
        seen |= members
    return out


def test_confusion_counts_consistent(rng):
    n = 9
    inferred = _random_graph(rng, n, 0.2)
    truth = _random_graph(rng, n, 0.2)
    rep = classification_scores(inferred, truth)
    assert rep.tp + rep.fn == truth.n_edges
    assert rep.tp + rep.fp == inferred.n_edges
    assert rep.tp + rep.fp + rep.fn + rep.tn == n * (n - 1)
    if rep.tp + rep.fp:
        assert rep.precision == pytest.approx(rep.tp / (rep.tp + rep.fp))


def _adjacency(graph):
    a = np.zeros((graph.n_users, graph.n_users), dtype=bool)
    a[graph.src, graph.dst] = True
    return a


def _dense_report(inferred, truth, scores):
    """The report from dense N x N indicators, an off-diagonal mask and four
    masked sums: the computation the key-based scoring replaced."""
    n = truth.n_users
    pred, pos = _adjacency(inferred), _adjacency(truth)
    off = ~np.eye(n, dtype=bool)
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos & off))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos & off))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    score_mat = pred.astype(np.float64) if scores is None else scores
    auc = roc_auc(pos[off], score_mat[off])
    return EvalReport(precision, recall, f1, auc, tp, fp, fn, tn)


def _bits(report):
    """Each field of a report, floats as their IEEE bytes (NaN equals NaN)."""
    return [struct.pack("<d", v) if isinstance(v, float) else v
            for v in vars(report).values()]


@st.composite
def _scored_graphs(draw):
    n = draw(st.integers(1, 12))
    off = [k for k in range(n * n) if k // n != k % n]
    keys = st.lists(st.sampled_from(off), unique=True) if off else st.just([])
    inferred, truth = (InferredGraph(n, np.column_stack(np.divmod(
        np.array(draw(keys), dtype=np.int64), n))) for _ in range(2))
    scores = draw(st.none() | st.lists(
        st.sampled_from([0.0, 0.5, 1.0, float("nan")]) | st.floats(0.0, 1.0),
        min_size=n * n, max_size=n * n))
    return inferred, truth, None if scores is None else np.reshape(scores, (n, n))


@settings(max_examples=150, deadline=None)
@given(_scored_graphs())
def test_key_scoring_matches_dense_oracle_bitwise(case):
    inferred, truth, scores = case
    got = classification_scores(inferred, truth, scores=scores)
    assert _bits(got) == _bits(_dense_report(inferred, truth, scores))


def test_scores_shape_validation():
    with pytest.raises(ValueError, match="scores"):
        classification_scores(
            InferredGraph(3, []), InferredGraph(3, []), scores=np.zeros((2, 2))
        )


def _midranks_loop(values):
    """1-based midranks by a per-run while loop over a stable sort: the
    reference ``roc_auc`` must reproduce bit for bit."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _rank_auc(labels, ranks):
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return (float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _auc_loop(labels, scores):
    return _rank_auc(labels, _midranks_loop(np.asarray(scores, dtype=np.float64)))


def _fitted_scores(rng, n):
    """The off-diagonal scores of a fitted ER score matrix over ``n`` users:
    the prior on every unordered pair, and a posterior on each active pair
    from a few hundred pair classes, some at the fixed points 0 and 1."""
    scores = np.full(n * (n - 1), 0.578)
    active = rng.uniform(size=len(scores)) < 0.2
    classes = np.r_[1e-9, 1.0 - 1e-9, rng.uniform(size=300)]
    scores[active] = rng.choice(classes, size=int(active.sum()))
    return scores


def _rank_cases():
    rng = np.random.default_rng(7)
    # a fitted score matrix: few prior values for unordered pairs, a posterior
    # for each active pair, many of them at the same fixed points
    prior_ties = rng.choice([0.004, 0.03, 0.61], size=4000)
    active = rng.uniform(size=4000) < 0.1
    prior_ties[active] = rng.choice([1e-9, 0.5, 1.0 - 1e-9, *rng.uniform(size=50)],
                                    size=int(active.sum()))
    return {
        "empty": np.array([]),
        "single": np.array([0.3]),
        "all_tied": np.full(257, 0.25),
        "two_values": np.array([1.0, 0.0, 1.0, 0.0, 0.0]),
        "signed_zeros": np.array([0.0, -0.0, 2.0, 0.0, -1.0]),
        "prior_ties": prior_ties,
        "random": rng.uniform(size=5000),
        "indicator": (rng.uniform(size=999) < 0.2).astype(np.float64),
        "nans": np.array([0.5, np.nan, 0.1, np.nan, 0.5, 0.1]),  # each NaN its own run
        # mostly NaN, so half the labels drawn positive put NaNs among them
        "nan_positives": np.r_[np.full(30, np.nan), rng.choice([0.2, 0.7], size=10)],
        # +0.0 and -0.0 are one value, whichever class holds which sign
        "signed_zeros_split": rng.choice([0.0, -0.0, 1.0, -1.0], size=400),
        "fitted_250k": _fitted_scores(rng, 500),
    }


@pytest.mark.parametrize("name", list(_rank_cases()))
def test_midranks_match_loop_and_scipy(name):
    """roc_auc equals the AUC of scipy's average ranks, bit for bit, and the
    loop reference ranks as scipy does; scipy's ranks propagate NaN, so a
    case with NaNs is held to the loop's ranks instead."""
    stats = pytest.importorskip("scipy.stats")
    values = _rank_cases()[name]
    ranks = _midranks_loop(values)
    if not np.isnan(values).any():
        scipy_ranks = stats.rankdata(values, method="average")
        np.testing.assert_array_equal(ranks, scipy_ranks)
        ranks = scipy_ranks
    rng = np.random.default_rng(len(values) + 1)
    for frac in (0.05, 0.5):
        labels = rng.uniform(size=len(values)) < frac
        got = roc_auc(labels, values)
        if labels.all() or not labels.any():
            assert np.isnan(got)
            continue
        assert np.float64(got).tobytes() == np.float64(_rank_auc(labels, ranks)).tobytes()


@pytest.mark.parametrize("name", list(_rank_cases()))
def test_roc_auc_matches_loop_bitwise(name):
    values = _rank_cases()[name]
    rng = np.random.default_rng(len(values))
    for frac in (0.05, 0.5):
        labels = rng.uniform(size=len(values)) < frac
        got = roc_auc(labels, values)
        if labels.all() or not labels.any():
            assert np.isnan(got)
            continue
        want = _auc_loop(labels, values)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if len(values) > 1 and np.all(values == values[0]):
        assert roc_auc(np.arange(len(values)) % 2 == 0, values) == 0.5


@pytest.mark.parametrize("label_shape, score_shape", [
    ((5,), (4,)), ((4,), (5,)), ((2, 2), (2, 2)), ((4,), (2, 2)),
])
def test_roc_auc_rejects_mismatched_shapes(label_shape, score_shape):
    labels = np.arange(np.prod(label_shape)).reshape(label_shape) % 2 == 0
    message = f"got {label_shape} labels and {score_shape} scores"
    with pytest.raises(ValueError, match=re.escape(message)):
        roc_auc(labels, np.zeros(score_shape))


def test_graph_stats_match_networkx(rng):
    nx = pytest.importorskip("networkx")
    for n, density in ((1, 0.0), (2, 1.0), (12, 0.05), (30, 0.04), (40, 0.1),
                       (60, 0.02), (25, 0.5)):
        g = _random_graph(rng, n, density)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges)
        st = graph_stats(g)
        lengths = [d for src, dist in nx.all_pairs_shortest_path_length(ref)
                   for dst, d in dist.items() if dst != src]
        assert st.n_edges == ref.number_of_edges()
        assert st.diameter == max(lengths, default=0)
        assert st.avg_shortest_path == (sum(lengths) / len(lengths) if lengths else None)
        sccs = sorted(len(c) for c in nx.strongly_connected_components(ref))
        biggest = max((s for s in sccs if s >= 2), default=0)
        assert st.max_scc_size == biggest
        assert st.max_scc_pct == (100.0 * biggest / n if biggest else 0.0)
        assert st.max_out_degree == max((d for _, d in ref.out_degree), default=0)
        assert st.max_in_degree == max((d for _, d in ref.in_degree), default=0)
