"""Louvain community detection, pairwise label F1, and block densities.

The Louvain pass is the standard two-phase greedy modularity scheme on an
undirected weighted graph: nodes move to the neighboring community with the
best gain (visiting order drawn from the seed), then communities collapse
into super-nodes and the process repeats while modularity improves.
Directed graphs are symmetrized before detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import InferredGraph


@dataclass(frozen=True)
class CommunityResult:
    labels: np.ndarray  # dense ints 0..G-1
    modularity: float
    level_modularity: tuple[float, ...]  # after each aggregation level

    @property
    def n_communities(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


# A level is a symmetric CSR adjacency as aligned (rows, cols, weights) arrays
# sorted by row, a self-loop stored once.  Neighbours in a row keep the order
# of their first entry and every weighted sum adds its terms in entry order,
# so results repeat bit for bit.
Level = tuple[np.ndarray, np.ndarray, np.ndarray]


def _accumulate(n: int, rows: np.ndarray, cols: np.ndarray, w: np.ndarray) -> Level:
    """Sum repeated (row, col) entries, in entry order, into an n-node level."""
    uniq, first, inv = np.unique(rows.astype(np.int64) * n + cols,
                                 return_index=True, return_inverse=True)
    order = np.lexsort((first, uniq // n))
    summed = np.bincount(inv, weights=w, minlength=len(uniq))
    return (uniq // n)[order], (uniq % n)[order], summed[order]


def _build_level(n: int, edges: np.ndarray) -> Level:
    """Undirected adjacency of (u, v, w) rows; parallel edges add up."""
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 2 or edges.shape[1] != 3:
        raise ValueError(f"expected an (E, 3) edge array, got shape {edges.shape}")
    if np.any((edges[:, :2] < 0) | (edges[:, :2] >= n)):
        raise ValueError(f"edge endpoint outside of 0..{n - 1}")
    src, dst = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    # edge e enters as (u, v) then (v, u); a self-loop enters once
    keep = np.column_stack([np.ones(len(src), bool), src != dst]).ravel()
    return _accumulate(n, np.column_stack([src, dst]).ravel()[keep],
                       np.column_stack([dst, src]).ravel()[keep],
                       np.repeat(edges[:, 2], 2)[keep])


def _degrees(n: int, level: Level) -> np.ndarray:
    rows, cols, w = level
    return np.bincount(rows, weights=np.where(rows == cols, 2.0 * w, w), minlength=n)


def modularity(n: int, edges: np.ndarray, labels: Sequence[int]) -> float:
    """Newman modularity of a labeling on an undirected weighted graph.

    ``edges`` holds one ``(u, v, weight)`` row per edge.
    """
    return _modularity(_build_level(n, edges), np.asarray(labels))


def _modularity(level: Level, labels: np.ndarray) -> float:
    k = _degrees(len(labels), level)
    two_m = float(k.sum())
    if two_m == 0.0:
        return 0.0
    rows, cols, w = level
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    tot = np.bincount(inv, weights=k)
    inner = inv[rows] == inv[cols]
    inside = np.bincount(inv[rows[inner]], weights=np.where(
        rows == cols, 2.0 * w, w)[inner], minlength=len(first))
    order = np.argsort(first)
    # Python float ``**`` (numpy's array square can round differently), summed
    # in first-appearance order, so the result repeats bit for bit
    q = 0.0
    for inside_c, tot_c in zip(inside[order].tolist(), tot[order].tolist()):
        q += inside_c / two_m - (tot_c / two_m) ** 2
    return q


def _one_level(level: Level, n: int, two_m: float,
               rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    rows, cols, w = level
    ptr = np.searchsorted(rows, np.arange(n + 1)).tolist()
    # a self-loop links a node to its own community at weight zero; scanning
    # the node's own community never changes the choice
    w_link = np.where(rows == cols, 0.0, w)
    nbrs = [cols[a:b] for a, b in zip(ptr, ptr[1:])]
    wts = [w_link[a:b] for a, b in zip(ptr, ptr[1:])]
    k_list = _degrees(n, level).tolist()
    labels = np.arange(n)
    comm_tot = list(k_list)
    improved = False
    moved = True
    while moved:
        moved = False
        for node in rng.permutation(n).tolist():
            c_old = int(labels[node])
            lab = labels[nbrs[node]]
            cands = np.bincount(lab).nonzero()[0]
            links = np.bincount(lab, weights=wts[node])[cands].tolist()
            cands = cands.tolist()
            k_node = k_list[node]
            comm_tot[c_old] -= k_node
            best_c = c_old
            best_gain = (links[cands.index(c_old)] if c_old in cands else 0.0) \
                - comm_tot[c_old] * k_node / two_m
            for c, link in zip(cands, links):
                gain = link - comm_tot[c] * k_node / two_m
                # gains within 1e-12 tie, and the lower label wins a tie
                if gain > best_gain + 1e-12 or (
                    c < best_c and abs(gain - best_gain) <= 1e-12
                ):
                    best_c, best_gain = c, gain
            comm_tot[best_c] += k_node
            labels[node] = best_c
            if best_c != c_old:
                moved = True
                improved = True
    return labels, improved


def _aggregate(level: Level, labels: np.ndarray) -> tuple[Level, np.ndarray]:
    """Collapse communities into super-nodes numbered by ascending label."""
    comms, new_labels = np.unique(labels, return_inverse=True)
    rows, cols, w = level
    ci, cj = new_labels[rows], new_labels[cols]
    # an inner edge is stored in both directions; halve it so the
    # super-node's self-loop carries its weight once
    val = np.where((ci == cj) & (rows != cols), w / 2.0, w)
    return _accumulate(len(comms), ci, cj, val), new_labels


def louvain(n_nodes: int, edges: np.ndarray, seed: int = 0) -> CommunityResult:
    """Two-phase Louvain on an undirected weighted edge list.

    ``edges`` holds one ``(u, v, weight)`` row per edge.  Deterministic for
    a fixed seed.  Nodes of an empty graph each form their own community.
    """
    if n_nodes < 1:
        raise ValueError("graph needs at least one node")
    base = _build_level(n_nodes, edges)
    two_m = float(_degrees(n_nodes, base).sum())
    if two_m == 0.0:
        return CommunityResult(np.arange(n_nodes), 0.0, ())

    rng = np.random.default_rng(seed)
    assignment = np.arange(n_nodes)
    level, n_level = base, n_nodes
    history: list[float] = []
    best_q = q_now = _modularity(base, assignment)
    while True:
        labels, improved = _one_level(level, n_level, two_m, rng)
        if not improved:
            break
        level, compact = _aggregate(level, labels)
        n_level = int(compact.max()) + 1
        assignment = compact[assignment]
        q_now = _modularity(base, assignment)
        history.append(q_now)
        if q_now <= best_q + 1e-12:
            break
        best_q = q_now

    # canonical dense labels ordered by first appearance: the same partition
    # in the same first-appearance order, so q_now is its modularity
    _, first, inv = np.unique(assignment, return_index=True, return_inverse=True)
    final = np.argsort(np.argsort(first))[inv]
    return CommunityResult(final, q_now, tuple(history))


def louvain_graph(graph: InferredGraph, seed: int = 0) -> CommunityResult:
    """Louvain on the symmetrized projection of a directed graph."""
    n = graph.n_users
    # one unit edge per linked unordered pair, in ascending order
    key = np.unique(np.minimum(graph.src, graph.dst) * n
                    + np.maximum(graph.src, graph.dst))
    return louvain(n, np.column_stack([key // n, key % n, np.ones(len(key))]), seed)


def same_label_pairs(labels: np.ndarray) -> int:
    """Number of ordered pairs of distinct users that share a label."""
    _, counts = np.unique(labels, return_counts=True)
    return int((counts * (counts - 1)).sum())


def pairwise_f1(labels_pred: Sequence[int], labels_true: Sequence[int]) -> float:
    """F1 of the 'same community' relation over all unordered user pairs."""
    pred = np.asarray(labels_pred)
    true = np.asarray(labels_true)
    if pred.shape != true.shape:
        raise ValueError("labelings cover different user sets")

    # dense ids, so that the joint label fits int64 whatever ids were given
    pred = np.unique(pred, return_inverse=True)[1]
    true = np.unique(true, return_inverse=True)[1]
    joint = pred * (int(true.max()) + 1 if len(true) else 1) + true
    tp = same_label_pairs(joint) // 2
    pos_pred = same_label_pairs(pred) // 2
    pos_true = same_label_pairs(true) // 2
    if tp == 0:
        return 0.0
    precision = tp / pos_pred
    recall = tp / pos_true
    return 2.0 * precision * recall / (precision + recall)


def estimate_block_densities(
    graph: InferredGraph, labels: Sequence[int]
) -> tuple[float | None, float | None]:
    """Directed edge density inside and across communities.

    Returns ``None`` for a side with no ordered pairs (single community has
    no cross pairs, all-singleton labelings no intra pairs).
    """
    lab = np.asarray(labels)
    if len(lab) != graph.n_users:
        raise ValueError("labels must cover every graph node")
    n = graph.n_users
    intra_pairs = same_label_pairs(lab)
    inter_pairs = n * (n - 1) - intra_pairs
    intra_edges = int(np.count_nonzero(lab[graph.src] == lab[graph.dst]))
    inter_edges = graph.n_edges - intra_edges
    p_hat = intra_edges / intra_pairs if intra_pairs else None
    q_hat = inter_edges / inter_pairs if inter_pairs else None
    return p_hat, q_hat
