"""Edge-prediction scoring against a ground truth, and network statistics.

The classification universe is all N(N-1) ordered pairs.  AUC ranks every
pair by its score (posterior where available, the prior for pairs the trace
never ordered, 1/0 indicators for score-free heuristics) and uses midranks
for ties, which coincides with trapezoidal integration of the ROC curve.
It sorts the scores once and finds each positive's midrank by binary
search, so no permutation of the N(N-1) scores is ever built; the rank sum
is a sum of half-integers, exact in any order, so the AUC does not depend
on how the sort breaks ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import InferredGraph


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    auc: float
    tp: int
    fp: int
    fn: int
    tn: int
    feasibility: float | None = None

    def to_json(self) -> dict:
        out = {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "auc": self.auc,
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
        }
        if self.feasibility is not None:
            out["feasibility"] = self.feasibility
        return out


def _adjacency(graph: InferredGraph) -> np.ndarray:
    a = np.zeros((graph.n_users, graph.n_users), dtype=bool)
    a[graph.src, graph.dst] = True
    return a


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with midrank tie handling.

    The scores are sorted once, and each positive's midrank comes from two
    binary searches into the sorted numbers: a run of equal values spans
    sorted positions ``lo..hi-1`` and each of its members ranks
    ``(lo + hi + 1) / 2``.  Every rank is a half-integer, so the rank sum
    is exact in any order of summation.  A NaN equals nothing, so each NaN
    is a run of its own; the NaNs rank after every number, in input order.
    """
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.ndim != 1 or scores.ndim != 1 or len(labels) != len(scores):
        raise ValueError(
            f"labels and scores must be 1-D of one length, got "
            f"{labels.shape} labels and {scores.shape} scores"
        )
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    nan = np.isnan(scores)
    n_nan = int(nan.sum())
    numbers = np.sort(scores)[: len(scores) - n_nan]  # np.sort puts NaNs last
    pos = scores[labels & ~nan]
    # twice each rank, an integer: lo + hi + 1 over the run lo..hi-1
    twice = int(np.searchsorted(numbers, pos, "left").sum()
                + np.searchsorted(numbers, pos, "right").sum()) + len(pos)
    if n_nan:
        # the k-th NaN of the input (k = 1, 2, ...) ranks len(numbers) + k
        k = np.cumsum(nan)[labels & nan]
        twice += 2 * int((len(numbers) + k).sum())
    pos_rank_sum = 0.5 * twice
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def classification_scores(
    inferred: InferredGraph,
    truth: InferredGraph,
    scores: np.ndarray | None = None,
    feasibility: float | None = None,
) -> EvalReport:
    """Precision/recall/F1 of the thresholded graph plus ranking AUC.

    ``scores`` is an optional dense (n, n) matrix; without it the inferred
    edge indicator serves as the score.
    """
    if inferred.n_users != truth.n_users:
        raise ValueError(
            f"user sets differ: {inferred.n_users} vs {truth.n_users} users"
        )
    n = truth.n_users
    pred = _adjacency(inferred)
    pos = _adjacency(truth)
    off = ~np.eye(n, dtype=bool)
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos & off))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos & off))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    if scores is None:
        score_mat = pred.astype(np.float64)
    else:
        score_mat = np.asarray(scores, dtype=np.float64)
        if score_mat.shape != (n, n):
            raise ValueError(f"scores must be ({n}, {n})")
    auc = roc_auc(pos[off], score_mat[off])
    return EvalReport(precision, recall, f1, auc, tp, fp, fn, tn, feasibility)


@dataclass(frozen=True)
class GraphStats:
    n_edges: int
    avg_out_degree: float
    max_out_degree: int
    max_in_degree: int
    diameter: int
    avg_shortest_path: float | None
    max_scc_pct: float  # largest SCC with >= 2 nodes, as % of users
    max_scc_size: int

    def to_json(self) -> dict:
        return {
            "n_edges": self.n_edges,
            "avg_out_degree": self.avg_out_degree,
            "max_out_degree": self.max_out_degree,
            "max_in_degree": self.max_in_degree,
            "diameter": self.diameter,
            "avg_shortest_path": self.avg_shortest_path,
            "max_scc_pct": self.max_scc_pct,
            "max_scc_size": self.max_scc_size,
        }


def _bfs_lengths(adj: list[list[int]], src: int) -> dict[int, int]:
    dist = {src: 0}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def _scc_sizes(n: int, adj: list[list[int]]) -> list[int]:
    """Tarjan strongly connected components, iterative."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sizes: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            for k in range(pi, len(adj[node])):
                nb = adj[node][k]
                if index[nb] == -1:
                    work[-1] = (node, k + 1)
                    work.append((nb, 0))
                    recurse = True
                    break
                if on_stack[nb]:
                    low[node] = min(low[node], index[nb])
            if recurse:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                size = 0
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    size += 1
                    if w == node:
                        break
                sizes.append(size)
    return sizes


def graph_stats(graph: InferredGraph) -> GraphStats:
    """Degree, distance, and connectivity profile of a directed graph.

    Diameter is the largest finite directed shortest-path length; the
    average is over reachable ordered pairs.  An edgeless graph reports
    diameter 0 and no average path.
    """
    n = graph.n_users
    adj = graph.out_adj
    out_deg = np.bincount(graph.src, minlength=n)
    in_deg = np.bincount(graph.dst, minlength=n)

    diameter = 0
    total = 0
    reachable = 0
    for src in range(n):
        if not adj[src]:
            continue
        dist = _bfs_lengths(adj, src)
        for node, d in dist.items():
            if node == src:
                continue
            total += d
            reachable += 1
            if d > diameter:
                diameter = d
    avg_path = total / reachable if reachable else None

    sizes = [s for s in _scc_sizes(n, adj) if s >= 2]
    biggest = max(sizes) if sizes else 0
    return GraphStats(
        n_edges=graph.n_edges,
        avg_out_degree=graph.n_edges / n if n else 0.0,
        max_out_degree=int(out_deg.max()) if n else 0,
        max_in_degree=int(in_deg.max()) if n else 0,
        diameter=diameter,
        avg_shortest_path=avg_path,
        max_scc_pct=100.0 * biggest / n if biggest else 0.0,
        max_scc_size=biggest,
    )
