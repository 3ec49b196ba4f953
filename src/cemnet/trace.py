"""Interaction-log parsing, episode derivation, and temporal pair counts.

A trace is a CSV of post/repost rows ``pid,t,uid,rid`` where ``rid = -1``
marks an original post and otherwise points at the reposted instance
(possibly itself a repost).  From the trace we derive *episodes*: for each
original post, the author followed by the users that reshared it, in
chronological order.  ``M[i, j]`` counts the episodes in which user ``i``
appears strictly before user ``j``; only pairs with a positive count are
ever stored.
"""

from __future__ import annotations

import csv as _csv
import io
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

log = logging.getLogger("cemnet.trace")

ORIGINAL_RID = "-1"


class TraceFormatError(ValueError):
    """Malformed or inconsistent trace input (bad row, duplicate pid, ...)."""


@dataclass(frozen=True)
class TraceRecord:
    pid: str
    t: float
    uid: str
    rid: str | None  # None for original posts


@dataclass(frozen=True)
class Episode:
    """Time-ordered participants of one original post.

    ``users[0]`` is the author; the remaining entries are the resharers in
    chronological order (ties broken by trace row order).  A uid appears at
    most once.
    """

    root_pid: str
    users: tuple[int, ...]
    times: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.users)


class Trace:
    """Parsed trace with uids/pids interned to dense integer indices."""

    def __init__(self, records: Sequence[TraceRecord]):
        if not records:
            raise TraceFormatError("empty trace")
        self.records: tuple[TraceRecord, ...] = tuple(records)
        seen: dict[str, int] = {}
        by_pid: dict[str, int] = {}
        for row, rec in enumerate(self.records):
            if rec.pid in by_pid:
                raise TraceFormatError(f"duplicate pid {rec.pid!r} at row {row + 1}")
            by_pid[rec.pid] = row
            if rec.uid not in seen:
                seen[rec.uid] = len(seen)
        for row, rec in enumerate(self.records):
            if rec.rid is None:
                continue
            if rec.rid not in by_pid:
                raise TraceFormatError(
                    f"row {row + 1}: rid {rec.rid!r} does not match any pid in the trace"
                )
            # checking each parent suffices: no repost then precedes its root
            parent_t = self.records[by_pid[rec.rid]].t
            if rec.t < parent_t:
                raise TraceFormatError(
                    f"row {row + 1}: repost {rec.pid!r} at t={rec.t!r} precedes "
                    f"its parent {rec.rid!r} at t={parent_t!r}"
                )
        self.users: tuple[str, ...] = tuple(seen)
        self.uid_index: dict[str, int] = seen
        self._row_of_pid = by_pid
        self.originals: tuple[str, ...] = tuple(
            r.pid for r in self.records if r.rid is None
        )

    @property
    def n_users(self) -> int:
        return len(self.users)

    def record_of(self, pid: str) -> TraceRecord:
        try:
            return self.records[self._row_of_pid[pid]]
        except KeyError:
            raise KeyError(f"unknown pid {pid!r}") from None

    def head(self, n_rows: int) -> "Trace":
        """First ``n_rows`` rows as a new trace.

        Rows are time-ordered and reposts always point backwards, so any
        prefix is closed under rid resolution.
        """
        if n_rows >= len(self.records):
            return self
        return Trace(self.records[:n_rows])


def _parse_timestamp(token: str, mode: list[str | None], row: int) -> float:
    token = token.strip()
    if mode[0] is None:
        mode[0] = "int" if token.lstrip("+-").isdigit() else "rfc3339"
    if mode[0] == "int":
        try:
            value = int(token)
        except ValueError:
            raise TraceFormatError(
                f"row {row}: timestamp {token!r} is not an integer "
                "(timestamp styles cannot be mixed within one file)"
            ) from None
        if value < 0:
            raise TraceFormatError(f"row {row}: negative timestamp {token!r}")
        return float(value)
    try:
        stamp = datetime.fromisoformat(token.replace("Z", "+00:00"))
    except ValueError:
        raise TraceFormatError(f"row {row}: unparsable timestamp {token!r}") from None
    if stamp.tzinfo is None:  # naive stamps are UTC, never host local time
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def parse_trace(source: str | Path | IO[str], *, drop_orphans: bool = False) -> Trace:
    """Parse a ``pid,t,uid,rid`` CSV stream into a :class:`Trace`.

    Timestamps are non-negative integers or RFC3339 strings, auto-detected
    from the first row and required to be homogeneous; RFC3339 strings
    without an offset are read as UTC.  A rid chain that
    does not resolve to a post in the trace is a hard error unless
    ``drop_orphans`` is set, in which case the offending rows are dropped
    with a warning.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_trace(fh, drop_orphans=drop_orphans)
    reader = _csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise TraceFormatError("empty trace")
    if [h.strip() for h in header] != ["pid", "t", "uid", "rid"]:
        raise TraceFormatError(f"bad header {header!r}, expected pid,t,uid,rid")
    mode: list[str | None] = [None]
    records: list[TraceRecord] = []
    for row, parts in enumerate(reader, start=2):
        if not parts:
            continue
        if len(parts) != 4:
            raise TraceFormatError(f"row {row}: expected 4 fields, got {len(parts)}")
        pid, t_token, uid, rid = (p.strip() for p in parts)
        if not pid or not uid:
            raise TraceFormatError(f"row {row}: empty pid or uid")
        t = _parse_timestamp(t_token, mode, row)
        records.append(
            TraceRecord(pid, t, uid, None if rid == ORIGINAL_RID else rid)
        )
    if not records:
        raise TraceFormatError("empty trace")
    if drop_orphans:
        records = _drop_orphans(records)
    return Trace(records)


def _drop_orphans(records: list[TraceRecord]) -> list[TraceRecord]:
    """Drop records whose rid chain leaves the trace (and their dependants)."""
    known = {r.pid for r in records}
    kept: list[TraceRecord] = []
    dropped: set[str] = set()
    for rec in records:
        if rec.rid is not None and (rec.rid not in known or rec.rid in dropped):
            dropped.add(rec.pid)
            log.warning("dropping orphan repost %s (rid %s)", rec.pid, rec.rid)
            continue
        kept.append(rec)
    # a drop can orphan later rows that were already checked against `known`
    if dropped:
        again = [r for r in kept if r.rid in dropped]
        while again:
            for rec in again:
                dropped.add(rec.pid)
                log.warning("dropping orphan repost %s (rid %s)", rec.pid, rec.rid)
            kept = [r for r in kept if r.pid not in dropped]
            again = [r for r in kept if r.rid in dropped]
    return kept


def resolve_root(trace: Trace, pid: str, _memo: dict[str, str] | None = None) -> str:
    """Follow the rid chain from ``pid`` to the original post it reshares."""
    memo = _memo if _memo is not None else {}
    path: list[str] = []
    cur = pid
    while cur not in memo:
        rec = trace.record_of(cur)
        if rec.rid is None:
            memo[cur] = cur
            break
        path.append(cur)
        cur = rec.rid
        if cur in path:
            raise TraceFormatError(f"rid cycle detected at pid {cur!r}")
    root = memo[cur] if cur in memo else cur
    for p in path:
        memo[p] = root
    return root


def _root_rows(trace: Trace, parent: np.ndarray) -> np.ndarray:
    """Row of the original post behind every row, by pointer jumping.

    ``parent`` holds the row each row reshares, -1 for originals.
    """
    root = np.where(parent < 0, np.arange(len(parent)), parent)
    for _ in range(max(1, len(parent)).bit_length() + 1):
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    stuck = np.flatnonzero(parent[root] >= 0)
    if len(stuck):
        raise TraceFormatError(
            f"rid cycle detected at pid {trace.records[stuck[0]].pid!r}"
        )
    return root


def build_episodes(trace: Trace, *, retweeted_only: bool = True) -> list[Episode]:
    """Group reposts by resolved root into chronologically ordered episodes.

    With ``retweeted_only`` (the standard preprocessing) originals that were
    never reshared produce no episode.  Repeat reshares of one root by the
    same uid keep only the earliest; reshares by the root's own author are
    ignored since the author already heads the episode.
    """
    recs, n = trace.records, len(trace.records)
    uid = np.fromiter((trace.uid_index[r.uid] for r in recs), dtype=np.int64, count=n)
    t = np.fromiter((r.t for r in recs), dtype=np.float64, count=n)
    parent = np.fromiter(
        (-1 if r.rid is None else trace._row_of_pid[r.rid] for r in recs),
        dtype=np.int64, count=n,
    )
    root = _root_rows(trace, parent)
    rows = np.flatnonzero((parent >= 0) & (uid != uid[root]))
    # earliest (t, row) per (root, uid), then chronological within each root
    rows = rows[np.lexsort((rows, t[rows], uid[rows], root[rows]))]
    earliest = np.ones(len(rows), dtype=bool)
    earliest[1:] = (root[rows[1:]] != root[rows[:-1]]) | (uid[rows[1:]] != uid[rows[:-1]])
    rows = rows[earliest]
    rows = rows[np.lexsort((rows, t[rows], root[rows]))]

    originals = np.flatnonzero(parent < 0)
    # original k's resharers are rows[bounds[k]:bounds[k + 1]]
    bounds = np.append(np.searchsorted(root[rows], originals), len(rows)).tolist()
    res_users, res_times = uid[rows].tolist(), t[rows].tolist()
    episodes: list[Episode] = []
    for k, row in enumerate(originals.tolist()):
        lo, hi = bounds[k], bounds[k + 1]
        if lo == hi and retweeted_only:
            continue
        rec = trace.records[row]
        episodes.append(Episode(rec.pid, (int(uid[row]),) + tuple(res_users[lo:hi]),
                                (rec.t,) + tuple(res_times[lo:hi])))
    return episodes


# slots per block: keeps the per-slot temporaries of one pass near 1 MB
BLOCK_SLOTS = 1 << 15


def key_dtype(n_users: int) -> type:
    """Dtype of the pair keys ``i * n_users + j``: int32 while they fit."""
    return np.int32 if n_users * n_users < 2**31 else np.int64


@dataclass(frozen=True)
class Slots:
    """Every episode's predecessor slots, one CSR row per (episode, resharer).

    ``users``/``times`` hold the episodes back to back.  Row ``r`` is the
    resharer at flat index ``stop[r]`` of episode ``episode_ids[r]``; its
    slots are the users ahead of it, ``users[start[r]:stop[r]]``, the author
    first.  Rows follow episode order, then position, exactly like the
    covering rows, so ``row_ptr`` is the covering rows' CSR pointer.
    """

    users: np.ndarray  # (U,) int32
    times: np.ndarray  # (U,) float64
    start: np.ndarray  # (R,) intp, flat index of the row's author
    stop: np.ndarray  # (R,) intp, flat index of the row's resharer
    episode_ids: np.ndarray  # (R,) int64

    @property
    def row_len(self) -> np.ndarray:
        return self.stop - self.start

    @property
    def row_ptr(self) -> np.ndarray:
        ptr = np.zeros(len(self.stop) + 1, dtype=np.int64)
        np.cumsum(self.row_len, out=ptr[1:])
        return ptr

    @property
    def targets(self) -> np.ndarray:
        """The resharer's uid per row."""
        return self.users[self.stop].astype(np.int64)

    def blocks(self) -> Iterator["Slots"]:
        """The rows in order, in runs of at most ``BLOCK_SLOTS`` slots.

        A row longer than that is a block of its own; without rows there
        is one empty block.
        """
        ptr = self.row_ptr
        lo = 0
        while True:
            hi = int(np.searchsorted(ptr, ptr[lo] + BLOCK_SLOTS, side="right")) - 1
            hi = min(max(hi, lo + 1), len(self.stop))
            yield Slots(self.users, self.times, self.start[lo:hi],
                        self.stop[lo:hi], self.episode_ids[lo:hi])
            if hi >= len(self.stop):
                return
            lo = hi

    def gather(self) -> np.ndarray:
        """Flat index into ``users``/``times`` of every slot, rows back to back."""
        lens = self.row_len
        out = np.ones(int(lens.sum()), dtype=np.intp)
        if len(out):
            # each row's run starts one step after the previous row's last slot
            out[0] = self.start[0]
            out[np.cumsum(lens[:-1])] = self.start[1:] - self.stop[:-1] + 1
            np.cumsum(out, out=out)
        return out

    def keys(self, n_users: int) -> np.ndarray:
        """``src * n_users + dst`` per slot, as :func:`key_dtype` ``(n_users)``."""
        dtype = key_dtype(n_users)
        out = np.empty(int(self.row_len.sum()), dtype=dtype)
        at = 0
        for blk in self.blocks():
            part = self.users[blk.gather()].astype(dtype, copy=False)
            part *= n_users
            part += np.repeat(self.users[blk.stop].astype(dtype), blk.row_len)
            out[at:at + len(part)] = part
            at += len(part)
        return out


def predecessor_slots(episodes: Sequence[Episode]) -> Slots:
    """Flatten the episodes and index their CSR-ordered predecessor slots."""
    lens = np.fromiter((len(ep.users) for ep in episodes), dtype=np.intp,
                       count=len(episodes))
    users = np.fromiter(chain.from_iterable(ep.users for ep in episodes),
                        dtype=np.int32, count=int(lens.sum()))
    times = np.fromiter(chain.from_iterable(ep.times for ep in episodes),
                        dtype=np.float64, count=len(users))
    ep_start = np.cumsum(lens) - lens
    ep_of = np.repeat(np.arange(len(episodes), dtype=np.int64), lens)
    stop = np.flatnonzero(np.arange(len(users)) != ep_start[ep_of])
    episode_ids = ep_of[stop]
    return Slots(users, times, ep_start[episode_ids], stop, episode_ids)


@dataclass
class PairTable:
    """Sparse per-ordered-pair storage for the active pairs of a trace.

    Rows are sorted lexicographically by ``(i, j)``.  ``m`` holds the
    episode counts; ``sigma``/``q`` are mutable slots used by the EM loop
    and start at zero.
    """

    n_users: int
    pairs: np.ndarray  # (P, 2) int32
    m: np.ndarray  # (P,) float64
    sigma: np.ndarray = field(default=None, repr=False)
    q: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.sigma is None:
            self.sigma = np.zeros(len(self.m))
        if self.q is None:
            self.q = np.zeros(len(self.m))
        self._keys = self.pairs[:, 0].astype(np.int64) * self.n_users + self.pairs[:, 1]

    @property
    def n_pairs(self) -> int:
        return len(self.m)

    def ids(self, src, dst) -> np.ndarray:
        """Row of each pair ``(src, dst)`` in the table, -1 where it is absent."""
        keys = (np.asarray(src, dtype=np.int64) * self.n_users
                + np.asarray(dst, dtype=np.int64))
        return self.ids_of_keys(keys)

    def ids_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`ids` for keys ``src * n_users + dst``, as :meth:`Slots.keys` makes them."""
        if not len(self._keys):
            return np.full(np.shape(keys), -1, dtype=np.int64)
        flat = np.ravel(keys)
        # numpy's binary search narrows from the previous hit, so sorted
        # queries run about twice as fast
        order = np.argsort(flat)
        at = np.empty(len(flat), dtype=np.intp)
        at[order] = np.searchsorted(self._keys, flat[order])
        np.minimum(at, len(self._keys) - 1, out=at)
        at[self._keys[at] != flat] = -1
        return at.reshape(np.shape(keys))

    def m_of(self, i: int, j: int) -> float:
        k = int(self.ids(i, j))
        return 0.0 if k < 0 else float(self.m[k])


def pair_counts(episodes: Sequence[Episode], n_users: int) -> PairTable:
    """Count, per ordered user pair, the episodes where ``i`` precedes ``j``."""
    keys = predecessor_slots(episodes).keys(n_users)
    # np.unique would sort a copy; sorting in place keeps one key array
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    del fresh
    counts = np.diff(np.append(starts, len(keys)))
    pairs = np.empty((len(starts), 2), dtype=np.int32)
    pairs[:, 0], pairs[:, 1] = np.divmod(keys[starts], n_users)
    return PairTable(n_users, pairs, counts.astype(np.float64))


def trace_to_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace back out in the canonical CSV format.

    Integral timestamps are written as integer ticks; fractional ones
    (possible after RFC3339 parsing) fall back to RFC3339 so the file
    stays within the format.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["pid", "t", "uid", "rid"])
        for rec in trace.records:
            if float(rec.t).is_integer():
                t = str(int(rec.t))
            else:
                t = datetime.fromtimestamp(rec.t, tz=timezone.utc).isoformat()
            writer.writerow([rec.pid, t, rec.uid, ORIGINAL_RID if rec.rid is None else rec.rid])


def trace_from_string(text: str, **kwargs) -> Trace:
    return parse_trace(io.StringIO(text), **kwargs)
