"""Directed graph over the trace's user indices, with CSV round-tripping."""

from __future__ import annotations

import csv as _csv
import math
import operator
from collections.abc import Set
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .trace import read_utf8


class GraphFormatError(ValueError):
    """Structurally malformed graph or label CSV (header, arity, values)."""


class InferredGraph:
    """Immutable directed edge set over ``n_users`` nodes, no self-loops.

    The edges are held as ``src``/``dst`` int64 arrays sorted by the key
    ``src * n_users + dst``, one entry per edge.  ``score`` optionally
    attaches a per-edge score aligned with them (posterior probability for
    EM methods; heuristics carry none and write 1.0 to CSV).  ``edges`` is
    a read-only set view over the arrays that builds no tuples until
    iterated; ``in_sets`` and ``out_adj`` are dict/list views built on
    first read.

    ``edges`` is an (E, 2) integer array or an iterable of ``(i, j)``
    pairs; ``scores`` is aligned with it.  A repeated edge keeps the score
    of its last occurrence.
    """

    def __init__(
        self,
        n_users: int,
        edges: np.ndarray | Iterable[tuple[int, int]],
        scores: Sequence[float] | np.ndarray | None = None,
    ):
        self.n_users = n_users
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64).reshape(-1, 2)
        src, dst = e[:, 0], e[:, 1]
        bad = (src == dst) | (src < 0) | (dst < 0) | (src >= n_users) | (dst >= n_users)
        if bad.any():
            i, j = e[int(np.argmax(bad))].tolist()
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            raise ValueError(f"edge ({i}, {j}) outside of 0..{n_users - 1}")
        keys = src * n_users + dst
        order = np.argsort(keys)
        if len(order):
            # one entry per key, its last occurrence (the largest position)
            starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
            order = np.maximum.reduceat(order, starts)
        self._keys = keys[order]
        self.src = src[order]
        self.dst = dst[order]
        self.score = None
        if scores is not None:
            score = np.asarray(scores, dtype=np.float64).reshape(-1)
            if len(score) != len(keys):
                raise ValueError(f"{len(score)} scores for {len(keys)} edges")
            self.score = score[order]
        for arr in (self._keys, self.src, self.dst, self.score):
            if arr is not None:
                arr.flags.writeable = False
        self._in_sets: dict[int, set[int]] | None = None
        self._out_adj: list[list[int]] | None = None

    @property
    def n_edges(self) -> int:
        return len(self._keys)

    def __contains__(self, edge: object) -> bool:
        return edge in self.edges

    def _find(self, i: int, j: int) -> int:
        """Position of edge (i, j) in the arrays, or -1."""
        if not (0 <= i < self.n_users and 0 <= j < self.n_users):
            return -1
        key = i * self.n_users + j
        k = int(np.searchsorted(self._keys, key))
        return k if k < len(self._keys) and self._keys[k] == key else -1

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    @property
    def in_sets(self) -> dict[int, set[int]]:
        """``{j: {i, ...}}`` over the nodes with at least one in-edge."""
        if self._in_sets is None:
            order = np.argsort(self.dst, kind="stable")
            dst = self.dst[order]
            src = self.src[order].tolist()
            starts = np.flatnonzero(np.diff(dst, prepend=-1))
            bounds = np.r_[starts, len(dst)].tolist()
            self._in_sets = {
                j: set(src[lo:hi])
                for j, lo, hi in zip(dst[starts].tolist(), bounds[:-1], bounds[1:])
            }
        return self._in_sets

    @property
    def out_adj(self) -> list[list[int]]:
        """Out-neighbours of every node, ascending."""
        if self._out_adj is None:
            ptr = np.searchsorted(self.src, np.arange(self.n_users + 1)).tolist()
            dst = self.dst.tolist()
            self._out_adj = [dst[ptr[i]:ptr[i + 1]] for i in range(self.n_users)]
        return self._out_adj


class EdgeView(Set):
    """The graph's edges as a read-only set of ``(i, j)`` tuples.

    Iteration runs in ascending ``(i, j)`` order, membership is a binary
    search in the graph's arrays (anything but a pair of integers is not a
    member), and set operators that build a new set return a ``frozenset``.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: InferredGraph):
        self._graph = graph

    @classmethod
    def _from_iterable(cls, it: Iterable) -> frozenset:
        return frozenset(it)

    def __len__(self) -> int:
        return self._graph.n_edges

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._graph.src.tolist(), self._graph.dst.tolist())

    def __contains__(self, edge: object) -> bool:
        try:
            i, j = map(operator.index, edge)
        except (TypeError, ValueError):
            return False
        return self._graph._find(i, j) >= 0

    def __repr__(self) -> str:
        return f"EdgeView({set(self)!r})"


def write_graph_csv(
    graph: InferredGraph, users: Sequence[str], path: str | Path
) -> None:
    """Edge list ``src,dst,q`` with original uid tokens, sorted for stable bytes."""
    score = graph.score if graph.score is not None else np.ones(graph.n_edges)
    rows = sorted(zip([users[i] for i in graph.src.tolist()],
                      [users[j] for j in graph.dst.tolist()], score.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "q"])
        for src, dst, q in rows:
            writer.writerow([src, dst, repr(float(q))])


def _csv_rows(fh, path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The CSV rows of ``fh``, each with the file line it ends on; a
    ``csv.Error`` becomes a format error naming the line."""
    reader = _csv.reader(fh)
    try:
        for fields in reader:
            yield reader.line_num, fields
    except _csv.Error as exc:
        raise GraphFormatError(f"{path}: row {reader.line_num}: {exc}") from None


def read_graph_csv(path: str | Path, users: Sequence[str]) -> InferredGraph:
    """Read an edge-list CSV, mapping uid tokens onto the given user universe."""
    uid_index = {u: k for k, u in enumerate(users)}
    edges: list[tuple[int, int]] = []
    scores: dict[tuple[int, int], float] = {}
    with read_utf8(path, GraphFormatError, f"{path}: ") as fh:
        reader = _csv_rows(fh, path)
        _, header = next(reader, (1, None))
        if header is None or [h.strip() for h in header[:2]] != ["src", "dst"]:
            raise GraphFormatError(f"{path}: expected header src,dst[,q]")
        for row, parts in reader:
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
            if src == dst:
                raise GraphFormatError(f"{path}: row {row}: self-loop on uid {src!r}")
            edge = (uid_index[src], uid_index[dst])
            edges.append(edge)
            if len(parts) == 3 and parts[2].strip():
                try:
                    score = float(parts[2])
                except ValueError:
                    score = math.nan
                if not math.isfinite(score):
                    raise GraphFormatError(f"{path}: row {row}: bad score {parts[2]!r}")
                scores[edge] = score
    # a repeated row keeps the last score it was given
    return InferredGraph(len(users), edges,
                         [scores.get(e, 1.0) for e in edges] if scores else None)


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
    with read_utf8(path, GraphFormatError, f"{path}: ") as fh:
        reader = _csv_rows(fh, path)
        _, header = next(reader, (1, None))
        if header is None or [h.strip() for h in header] != ["uid", "community"]:
            raise GraphFormatError(f"{path}: expected header uid,community")
        for row, parts in reader:
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
