"""Directed graph over the trace's user indices, held as sorted edge-key
arrays, with CSV round-tripping."""

from __future__ import annotations

import csv as _csv
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .trace import read_utf8


class GraphFormatError(ValueError):
    """Structurally malformed graph or label CSV (header, arity, values)."""


class InferredGraph:
    """Immutable directed edge set over ``n_users`` nodes, no self-loops.

    The graph is its arrays: ``keys`` (``src * n_users + dst``), ``src`` and
    ``dst``, int64, sorted by key with one entry per edge, and read-only.
    ``score`` optionally attaches a per-edge score aligned with them
    (posterior probability for EM methods; heuristics carry none and write
    1.0 to CSV).  ``edges`` is a plain tuple of ``(i, j)`` pairs in key
    order, built on each read for the benchmark's digest; nothing in the
    package reads it.  ``out_adj`` is built on each read, for its one
    reader per graph.

    ``edges`` is an (E, 2) integer array or an iterable of ``(i, j)``
    pairs; ``scores`` is aligned with it.  A repeated edge keeps the score
    of its last occurrence.  Edges given in strictly ascending key order,
    as ``em.threshold_graph`` builds them, are copied as they are, with no
    sort; the graph never shares an array with the caller.
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
        # contiguous copies: faster to check than strided columns, and never
        # the caller's arrays
        src, dst = e[:, 0].copy(), e[:, 1].copy()
        bad = (src == dst) | (src < 0) | (dst < 0) | (src >= n_users) | (dst >= n_users)
        if bad.any():
            i, j = e[int(np.argmax(bad))].tolist()
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            raise ValueError(f"edge ({i}, {j}) outside of 0..{n_users - 1}")
        keys = src * n_users + dst
        score = None
        if scores is not None:
            score = np.array(scores, dtype=np.float64).reshape(-1)
            if len(score) != len(keys):
                raise ValueError(f"{len(score)} scores for {len(keys)} edges")
        if not np.all(keys[1:] > keys[:-1]):
            order = np.argsort(keys)
            # one entry per key, its last occurrence (the largest position)
            starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
            order = np.maximum.reduceat(order, starts)
            keys, src, dst = keys[order], src[order], dst[order]
            if score is not None:
                score = score[order]
        self.keys, self.src, self.dst, self.score = keys, src, dst, score
        for arr in (self.keys, self.src, self.dst, self.score):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def n_edges(self) -> int:
        return len(self.keys)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The ``(i, j)`` pairs in key order."""
        return tuple(zip(self.src.tolist(), self.dst.tolist()))

    @property
    def out_adj(self) -> list[list[int]]:
        """Out-neighbours of every node, ascending."""
        ptr = np.searchsorted(self.src, np.arange(self.n_users + 1)).tolist()
        dst = self.dst.tolist()
        return [dst[ptr[i]:ptr[i + 1]] for i in range(self.n_users)]


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
            if out[uid_index[uid]] >= 0:
                raise GraphFormatError(f"{path}: row {row}: uid {uid!r} is listed twice")
            out[uid_index[uid]] = community
    missing = [users[k] for k, lab in enumerate(out) if lab < 0]
    if missing:
        raise GraphFormatError(f"{path}: missing community labels for {missing[:5]}")
    return out
