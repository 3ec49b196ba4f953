import numpy as np
import pytest

from cemnet import community as cm
from cemnet.graph import InferredGraph


def _rows(edges):
    """(E, 3) unit-weight rows for a list of ``(u, v)`` pairs."""
    return np.array([(u, v, 1.0) for u, v in edges], dtype=np.float64).reshape(-1, 3)


def _clique_edges(nodes):
    return [(a, b) for a in nodes for b in nodes if a < b]


def test_two_disjoint_cliques():
    edges = _clique_edges(range(4)) + _clique_edges(range(4, 8))
    res = cm.louvain(8, _rows(edges), seed=1)
    assert res.n_communities == 2
    assert len(set(res.labels[:4])) == 1
    assert len(set(res.labels[4:])) == 1
    assert res.labels[0] != res.labels[4]


def test_empty_graph_singletons():
    res = cm.louvain(5, np.empty((0, 3)), seed=0)
    assert list(res.labels) == [0, 1, 2, 3, 4]
    assert res.modularity == 0.0


def test_planted_two_block_recovery(rng):
    n = 60
    truth = np.array([0] * 30 + [1] * 30)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = 0.3 if truth[i] == truth[j] else 0.01
            if rng.uniform() < p:
                edges.append((i, j))
    res = cm.louvain(n, _rows(edges), seed=7)
    # map each found community to its majority planted block
    correct = 0
    for c in range(res.n_communities):
        members = np.flatnonzero(res.labels == c)
        majority = np.bincount(truth[members]).argmax()
        correct += int(np.sum(truth[members] == majority))
    assert correct / n >= 0.95


def test_level_modularity_nondecreasing(rng):
    n = 40
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < 0.1
    ]
    res = cm.louvain(n, _rows(edges), seed=3)
    hist = res.level_modularity
    assert all(a <= b + 1e-12 for a, b in zip(hist, hist[1:]))
    assert res.modularity >= cm.modularity(n, _rows(edges), np.arange(n)) - 1e-12


def test_louvain_deterministic(rng):
    n = 30
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < 0.15
    ]
    a = cm.louvain(n, _rows(edges), seed=11)
    b = cm.louvain(n, _rows(edges), seed=11)
    assert np.array_equal(a.labels, b.labels)
    assert a.modularity == b.modularity


def test_louvain_graph_symmetrizes():
    g = InferredGraph(4, [(0, 1), (1, 0), (2, 3)])
    res = cm.louvain_graph(g, seed=0)
    assert res.labels[0] == res.labels[1]
    assert res.labels[2] == res.labels[3]
    assert res.labels[0] != res.labels[2]


def test_pairwise_f1_identical():
    labels = [0, 0, 1, 1, 2]
    assert cm.pairwise_f1(labels, labels) == 1.0


def test_pairwise_f1_single_blob_vs_two_halves():
    n = 10
    pred = [0] * n
    true = [0] * (n // 2) + [1] * (n // 2)
    # precision = same-pairs(true)/same-pairs(pred) = (n/2 - 1)/(n - 1), recall = 1
    precision = (n / 2 - 1) / (n - 1)
    expected = 2 * precision / (precision + 1)
    assert cm.pairwise_f1(pred, true) == pytest.approx(expected, abs=1e-12)


def test_pairwise_f1_takes_ids_of_any_size():
    # a joint id pred * (max(true) + 1) + true would overflow int64 here
    huge = [10**23, 0, 0, 10**23, 2**63 - 1]
    assert cm.pairwise_f1(huge, [2**63 - 1, 5, 5, 2**63 - 1, 0]) == 1.0
    assert cm.pairwise_f1([0, 1, 1, 0, 0], huge) == pytest.approx(2 / 3, abs=1e-12)


def test_pairwise_f1_relabel_invariant(rng):
    for _ in range(10):
        a = rng.integers(0, 4, size=20)
        b = rng.integers(0, 3, size=20)
        perm = rng.permutation(4)
        assert cm.pairwise_f1(a, b) == pytest.approx(
            cm.pairwise_f1(perm[a], b), abs=1e-12
        )


def test_pairwise_f1_mismatched_sets():
    with pytest.raises(ValueError):
        cm.pairwise_f1([0, 1], [0, 1, 2])


def test_block_densities_complete_graph():
    n = 5
    g = InferredGraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])
    p_hat, q_hat = cm.estimate_block_densities(g, [0, 0, 1, 1, 1])
    assert p_hat == 1.0 and q_hat == 1.0


def test_block_densities_single_community():
    g = InferredGraph(3, [(0, 1)])
    p_hat, q_hat = cm.estimate_block_densities(g, [0, 0, 0])
    assert p_hat == pytest.approx(1.0 / 6.0)
    assert q_hat is None


def test_block_densities_hand_case():
    # two blocks {0,1} and {2}: intra pairs 2, inter pairs 4
    g = InferredGraph(3, [(0, 1), (0, 2), (2, 1)])
    p_hat, q_hat = cm.estimate_block_densities(g, [0, 0, 1])
    assert p_hat == pytest.approx(0.5)
    assert q_hat == pytest.approx(0.5)


def test_block_densities_in_unit_square(rng):
    for _ in range(10):
        n = 8
        edges = [
            (i, j) for i in range(n) for j in range(n)
            if i != j and rng.uniform() < 0.3
        ]
        labels = rng.integers(0, 3, size=n)
        p_hat, q_hat = cm.estimate_block_densities(InferredGraph(n, edges), labels)
        for v in (p_hat, q_hat):
            if v is not None:
                assert 0.0 <= v <= 1.0


def test_block_densities_length_check():
    with pytest.raises(ValueError):
        cm.estimate_block_densities(InferredGraph(3, []), [0, 1])


def test_block_densities_recover_planted_rates():
    from cemnet.simulate import SimConfig, generate_sbm_graph

    cfg = SimConfig(seed=4)
    g, labels = generate_sbm_graph(cfg, np.random.default_rng(99))
    p_hat, q_hat = cm.estimate_block_densities(g, labels)
    # sampling noise at ~2k intra / ~8k inter ordered pairs
    assert p_hat == pytest.approx(0.06, abs=0.025)
    assert q_hat == pytest.approx(0.007, abs=0.004)


def test_modularity_competitive_with_networkx(rng):
    nx = pytest.importorskip("networkx")
    for trial in range(5):
        n = 50
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.uniform() < 0.08
        ]
        mine = cm.louvain(n, _rows(edges), seed=trial)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        theirs = nx.community.louvain_communities(g, seed=trial)
        q_theirs = nx.community.modularity(g, theirs)
        # greedy maxima differ by visiting order; require the same league
        assert mine.modularity >= q_theirs - 0.05
        assert mine.modularity == pytest.approx(
            cm.modularity(n, _rows(edges), mine.labels), abs=1e-12
        )
