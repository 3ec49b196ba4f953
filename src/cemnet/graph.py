"""Directed graph over the trace's user indices, with CSV round-tripping."""

from __future__ import annotations

import csv as _csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence


class GraphFormatError(ValueError):
    """Structurally malformed graph or label CSV (header, arity, values)."""


class InferredGraph:
    """Immutable directed edge set over ``n_users`` nodes, no self-loops.

    ``scores`` optionally attaches a per-edge score (posterior probability
    for EM methods, 1.0 for heuristics).
    """

    def __init__(
        self,
        n_users: int,
        edges: Iterable[tuple[int, int]],
        scores: Mapping[tuple[int, int], float] | None = None,
    ):
        self.n_users = n_users
        self.edges: frozenset[tuple[int, int]] = frozenset(edges)
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < n_users and 0 <= j < n_users):
                raise ValueError(f"edge ({i}, {j}) outside of 0..{n_users - 1}")
        self.scores = dict(scores) if scores is not None else None
        self._in_sets: dict[int, set[int]] | None = None
        self._out_adj: list[list[int]] | None = None

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return edge in self.edges

    @property
    def in_sets(self) -> dict[int, set[int]]:
        if self._in_sets is None:
            ins: dict[int, set[int]] = {}
            for i, j in self.edges:
                ins.setdefault(j, set()).add(i)
            self._in_sets = ins
        return self._in_sets

    @property
    def out_adj(self) -> list[list[int]]:
        if self._out_adj is None:
            adj: list[list[int]] = [[] for _ in range(self.n_users)]
            for i, j in sorted(self.edges):
                adj[i].append(j)
            self._out_adj = adj
        return self._out_adj

    def score_of(self, i: int, j: int) -> float:
        if self.scores is None:
            return 1.0
        return self.scores.get((i, j), 1.0)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def write_graph_csv(
    graph: InferredGraph, users: Sequence[str], path: str | Path
) -> None:
    """Edge list ``src,dst,q`` with original uid tokens, sorted for stable bytes."""
    rows = sorted(
        (users[i], users[j], graph.score_of(i, j)) for i, j in graph.edges
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "q"])
        for src, dst, q in rows:
            writer.writerow([src, dst, repr(float(q))])


def read_graph_csv(path: str | Path, users: Sequence[str]) -> InferredGraph:
    """Read an edge-list CSV, mapping uid tokens onto the given user universe."""
    uid_index = {u: k for k, u in enumerate(users)}
    edges: list[tuple[int, int]] = []
    scores: dict[tuple[int, int], float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["src", "dst"]:
            raise GraphFormatError(f"{path}: expected header src,dst[,q]")
        for row, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) not in (2, 3):
                raise GraphFormatError(f"{path}: row {row}: expected 2 or 3 fields")
            src, dst = parts[0].strip(), parts[1].strip()
            for tok in (src, dst):
                if tok not in uid_index:
                    raise GraphFormatError(
                        f"{path}: row {row}: uid {tok!r} is not in the trace user set"
                    )
            edge = (uid_index[src], uid_index[dst])
            edges.append(edge)
            if len(parts) == 3 and parts[2].strip():
                try:
                    scores[edge] = float(parts[2])
                except ValueError:
                    raise GraphFormatError(
                        f"{path}: row {row}: bad score {parts[2]!r}"
                    ) from None
    return InferredGraph(len(users), edges, scores or None)


def write_labels_csv(
    labels: Sequence[int], users: Sequence[str], path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["uid", "community"])
        for uid, lab in zip(users, labels):
            writer.writerow([uid, int(lab)])


def read_labels_csv(path: str | Path, users: Sequence[str]) -> list[int]:
    uid_index = {u: k for k, u in enumerate(users)}
    out = [-1] * len(users)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["uid", "community"]:
            raise GraphFormatError(f"{path}: expected header uid,community")
        for row, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) != 2:
                raise GraphFormatError(f"{path}: row {row}: expected 2 fields")
            uid, lab = parts[0].strip(), parts[1].strip()
            if uid not in uid_index:
                raise GraphFormatError(
                    f"{path}: row {row}: uid {uid!r} is not in the trace user set"
                )
            try:
                community = int(lab)
            except ValueError:
                community = -1
            if community < 0:
                raise GraphFormatError(f"{path}: row {row}: bad community {lab!r}")
            out[uid_index[uid]] = community
    missing = [users[k] for k, lab in enumerate(out) if lab < 0]
    if missing:
        raise GraphFormatError(f"{path}: missing community labels for {missing[:5]}")
    return out
