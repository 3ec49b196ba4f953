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
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger("cemnet.trace")

ORIGINAL_RID = "-1"
_HEADER = "pid,t,uid,rid\n"
# a stamp of at most this many digits is below 2**53, so exact as a float64
_MAX_STAMP_DIGITS = 15
# the bytes of a canonical trace: newline and printable ASCII but space and '"'
_CANONICAL_BYTES = b"\n" + bytes(range(0x21, 0x7F)).replace(b'"', b"")
_LINE_SEPARATORS = np.frombuffer(b",,,\n", dtype=np.uint8)


class TraceFormatError(ValueError):
    """Malformed or inconsistent trace input (bad row, duplicate pid, ...)."""


@dataclass(frozen=True)
class TraceRecord:
    pid: str
    t: float
    uid: str
    rid: str | None  # None for original posts


@dataclass(frozen=True, eq=False)
class Trace:
    """A validated trace, one array per column.

    Row ``r`` is post ``pid[r]`` by user ``users[uid[r]]`` at ``t[r]``.  It
    reshares row ``parent[r]``, or is an original post where that is -1, and
    ``root[r]`` is the row of the original post behind it.  uids are interned
    in first-seen order.  :meth:`from_columns` and :func:`parse_trace`
    validate; the constructor takes the arrays as they are.
    """

    pid: np.ndarray  # (n,) object, str
    t: np.ndarray  # (n,) float64
    uid: np.ndarray  # (n,) int32
    parent: np.ndarray  # (n,) int64
    root: np.ndarray  # (n,) int64
    users: tuple[str, ...]
    uid_index: dict[str, int]

    @classmethod
    def from_columns(cls, pid: Sequence[str], t: Sequence[float], uid: Sequence[str],
                     rid: Sequence[str], lines: Sequence[int] | None = None) -> "Trace":
        """Validate and intern token columns, ``ORIGINAL_RID`` marking originals.

        Errors name row ``r`` by its file line ``lines[r]`` (``r + 2`` by default).
        """
        n = len(pid)
        if not n:
            raise TraceFormatError("empty trace")
        line = range(2, n + 2) if lines is None else lines
        pid, names = np.array(pid, dtype=object), list(pid)
        t = np.asarray(t, dtype=np.float64)
        parent, distinct = _parent_rows(names, rid)
        if not distinct:
            r = np.setdiff1d(np.arange(n), np.unique(pid, return_index=True)[1])[0]
            raise TraceFormatError(f"duplicate pid {pid[r]!r} at row {line[r]}")
        # checking each parent suffices: no repost then precedes its root
        early = (parent >= 0) & (t < t[np.maximum(parent, 0)])
        bad = np.flatnonzero((parent == -2) | early)
        if len(bad):
            r = bad[0]
            if parent[r] == -2:
                raise TraceFormatError(
                    f"row {line[r]}: rid {rid[r]!r} does not match any pid in the trace"
                )
            raise TraceFormatError(
                f"row {line[r]}: repost {pid[r]!r} at t={float(t[r])!r} precedes "
                f"its parent {rid[r]!r} at t={float(t[parent[r]])!r}"
            )
        root = _root_rows(parent)
        stuck = np.flatnonzero(parent[root] >= 0)
        if len(stuck):
            raise TraceFormatError(f"rid cycle detected at pid {pid[stuck[0]]!r}")
        users = tuple(dict.fromkeys(uid))
        index = {u: k for k, u in enumerate(users)}
        uid = np.fromiter(map(index.__getitem__, uid), dtype=np.int32, count=n)
        return cls(pid, t, uid, parent, root, users, index)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        """The rows as :class:`TraceRecord` tuples, built on first read."""
        rid = np.where(self.parent < 0, None, self.pid[self.parent]).tolist()
        return tuple(map(TraceRecord, self.pid.tolist(), self.t.tolist(), self.uid_tokens(), rid))

    def uid_tokens(self) -> list[str]:
        return np.array(self.users, dtype=object)[self.uid].tolist()

    def rid_tokens(self) -> list[str]:
        """Each row's rid as written in the file, ``ORIGINAL_RID`` for originals."""
        return np.where(self.parent < 0, ORIGINAL_RID, self.pid[self.parent]).tolist()

    def head(self, n_rows: int) -> "Trace":
        """First ``n_rows`` rows as a new trace.

        Rows are time-ordered and reposts always point backwards, so any
        prefix is closed under rid resolution.
        """
        if n_rows >= len(self.pid):
            return self
        return Trace.from_columns(self.pid[:n_rows], self.t[:n_rows],
                                  self.uid_tokens()[:n_rows], self.rid_tokens()[:n_rows])


def _parent_rows(pid: list[str], rid: Sequence[str]) -> tuple[np.ndarray, bool]:
    """The row each row reshares, and whether the pids are distinct.

    The row is -1 for an original and -2 for a rid that is no pid; a rid
    naming a repeated pid gets that pid's last row.
    """
    row_of = dict(zip(pid, range(len(pid))))
    distinct = len(row_of) == len(pid)
    row_of[ORIGINAL_RID] = -1
    parent = np.fromiter(map(row_of.get, rid, repeat(-2)), dtype=np.int64, count=len(rid))
    return parent, distinct


def _root_rows(parent: np.ndarray) -> np.ndarray:
    """The row each row's parent chain ends at, by pointer jumping.

    Chains end at a row with ``parent < 0``; a row on or behind a cycle
    ends on the cycle, where ``parent >= 0``.
    """
    root = np.where(parent < 0, np.arange(len(parent)), parent)
    for _ in range(max(1, len(parent)).bit_length() + 1):
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    return root


def _parse_timestamp(token: str, mode: list[str | None], row: int) -> float:
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
        try:
            return float(value)
        except OverflowError:
            raise TraceFormatError(f"row {row}: timestamp {token!r} is out of range") from None
    try:
        stamp = datetime.fromisoformat(token.replace("Z", "+00:00"))
    except ValueError:
        raise TraceFormatError(f"row {row}: unparsable timestamp {token!r}") from None
    if stamp.tzinfo is None:  # naive stamps are UTC, never host local time
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def read_text(path: str | Path, error: type[ValueError], prefix: str = "") -> str:
    """``path``'s bytes decoded as UTF-8.

    A file that cannot be read (missing, a directory, no permission) or a
    byte that is not UTF-8 raises ``error``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{prefix}row {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


def read_utf8(path: str | Path, error: type[ValueError], prefix: str = "") -> io.StringIO:
    """``path``'s text as a :mod:`csv` stream, failing as :func:`read_text` does."""
    return io.StringIO(read_text(path, error, prefix), newline="")


def parse_trace(source: str | Path | IO[str], *, drop_orphans: bool = False) -> Trace:
    """Parse a ``pid,t,uid,rid`` CSV stream into a :class:`Trace`.

    Timestamps are non-negative integers or RFC3339 strings, auto-detected
    from the first row and required to be homogeneous; RFC3339 strings
    without an offset are read as UTC.  A rid chain that
    does not resolve to a post in the trace is a hard error unless
    ``drop_orphans`` is set, in which case the offending rows are dropped
    with a warning.  Every error names the file line (the header is line 1).

    The source is read once.  Text in the canonical form that
    :func:`trace_to_csv` writes for integer stamps is split in bulk
    (:func:`_bulk_columns`); any other text goes through the csv row loop
    (:func:`_row_columns`), the only source of per-row messages.  Both give
    the same trace.
    """
    return _trace(_columns(source), drop_orphans)


_Columns = tuple[list, Sequence[float], list, list, Sequence[int]]


def _columns(source: str | Path | IO[str]) -> _Columns:
    """``source``'s pid, t, uid and rid columns and each row's file line.

    Returning drops the text before the trace is built from the columns.
    """
    if isinstance(source, (str, Path)):
        text = read_text(source, TraceFormatError)
        return _bulk_columns(text) or _row_columns(io.StringIO(text, newline=""))
    lines = source.readlines()  # the row loop sees the stream's own line breaks
    return _bulk_columns("".join(lines)) or _row_columns(lines)


def _trace(columns: _Columns, drop_orphans: bool) -> Trace:
    """The validated trace of the columns, less the orphans if asked."""
    pid, t, uid, rid, lines = columns
    if drop_orphans:
        keep = _kept_rows(pid, rid)
        pid, t, uid, rid, lines = ([col[k] for k in keep] for col in (pid, t, uid, rid, lines))
    return Trace.from_columns(pid, t, uid, rid, lines)


def _bulk_columns(text: str) -> _Columns | None:
    """The columns of a canonical trace, from one ``str.split`` of
    ``text``; None for any other text.

    Canonical means: the header is exactly ``pid,t,uid,rid``; every byte
    is a newline or printable ASCII other than space and ``"``; every line
    holds three commas, none is blank and none is longer than the csv
    field limit; no pid or uid is empty; every stamp is 1 to
    ``_MAX_STAMP_DIGITS`` digits.  With no quote, CR or whitespace to
    handle, the row loop would read such text as the same columns, with
    row ``r`` on line ``r + 2``.  Never raises.
    """
    if not (text.startswith(_HEADER) and text.isascii()):
        return None
    if not text.endswith("\n"):
        text += "\n"
    data = text.encode("ascii")
    if data.translate(None, _CANONICAL_BYTES):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if len(seps) % 4 or not (raw[seps].reshape(-1, 4) == _LINE_SEPARATORS).all():
        return None
    seps = seps.reshape(-1, 4)
    start = seps[:-1, 3] + 1  # of each row's line
    pid_end, t_end, uid_end, line_end = seps[1:].T
    width = t_end - pid_end - 1
    if not (len(start) and (pid_end > start).all() and (uid_end > t_end + 1).all()
            and (width >= 1).all() and (width <= _MAX_STAMP_DIGITS).all()
            and (line_end - start <= _csv.field_size_limit()).all()):
        return None
    t = np.zeros(len(width))
    for k in range(int(width.max()), 0, -1):  # each stamp's k-th digit from its end
        digit = raw[t_end - k] - np.uint8(ord("0"))
        digit[width < k] = 0
        if (digit > 9).any():
            return None
        t = t * 10 + digit  # exact: integers below 2**53
    # split the rows without their stamps: strings made only to be freed
    # would leave holes between the kept ones that raise the peak RSS
    in_t = np.zeros(len(raw), dtype=np.int8)
    in_t[pid_end], in_t[t_end] = 1, -1  # from the comma ahead of each stamp
    rows = slice(len(_HEADER), -1)
    kept = raw[rows][np.cumsum(in_t, dtype=np.int8)[rows] == 0]
    cells = kept.tobytes().decode("ascii").replace(",", "\n").split("\n")
    return cells[0::3], t, cells[1::3], cells[2::3], range(2, len(t) + 2)


def _row_columns(source: Iterable[str]) -> _Columns:
    """The columns of any trace text by :mod:`csv`, row by row, with each
    row's own message for a malformed row."""
    reader = _csv.reader(source)
    mode: list[str | None] = [None]
    pid, t, uid, rid, lines = [], [], [], [], []  # columns, and each row's file line
    try:
        header = next(reader, None)
        if header is None:
            raise TraceFormatError("empty trace")
        if [h.strip() for h in header] != ["pid", "t", "uid", "rid"]:
            raise TraceFormatError(f"bad header {header!r}, expected pid,t,uid,rid")
        for parts in reader:
            if not parts:
                continue
            row = reader.line_num
            if len(parts) != 4:
                raise TraceFormatError(f"row {row}: expected 4 fields, got {len(parts)}")
            p, stamp, u, r = map(str.strip, parts)
            if not p or not u:
                raise TraceFormatError(f"row {row}: empty pid or uid")
            pid.append(p)
            t.append(_parse_timestamp(stamp, mode, row))
            uid.append(u)
            rid.append(r)
            lines.append(row)
    except _csv.Error as exc:
        raise TraceFormatError(f"row {reader.line_num}: {exc}") from None
    return pid, t, uid, rid, lines


def _kept_rows(pid: list[str], rid: list[str]) -> list[int]:
    """Rows whose rid chain stays in the trace; each other row is logged."""
    parent, _ = _parent_rows(pid, rid)
    orphan = parent[_root_rows(parent)] == -2
    for r in np.flatnonzero(orphan).tolist():
        log.warning("dropping orphan repost %s (rid %s)", pid[r], rid[r])
    return np.flatnonzero(~orphan).tolist()


@dataclass(frozen=True, eq=False)
class Episodes:
    """Time-ordered participants of every episode, back to back (CSR).

    Episode ``e`` is the original post ``root_pids[e]``; its participants are
    ``users[ptr[e]:ptr[e + 1]]`` at ``times[ptr[e]:ptr[e + 1]]``: the author
    first, then the resharers in chronological order (ties broken by trace
    row order).  A uid appears at most once per episode.
    """

    ptr: np.ndarray  # (E + 1,) int64
    users: np.ndarray  # (U,) int32
    times: np.ndarray  # (U,) float64
    root_pids: tuple[str, ...]
    _slot_pairs: dict = field(default_factory=dict, init=False, repr=False)  # per n_users

    def __len__(self) -> int:
        return len(self.ptr) - 1


def build_episodes(trace: Trace, *, retweeted_only: bool = True) -> Episodes:
    """Group reposts by resolved root into chronologically ordered episodes.

    With ``retweeted_only`` (the standard preprocessing) originals that were
    never reshared produce no episode.  Repeat reshares of one root by the
    same uid keep only the earliest; reshares by the root's own author are
    ignored since the author already heads the episode.
    """
    uid, t, parent, root = trace.uid, trace.t, trace.parent, trace.root
    rows = np.flatnonzero((parent >= 0) & (uid != uid[root]))
    # earliest (t, row) per (root, uid), then chronological within each root
    rows = rows[np.lexsort((rows, t[rows], uid[rows], root[rows]))]
    earliest = np.ones(len(rows), dtype=bool)
    earliest[1:] = (root[rows[1:]] != root[rows[:-1]]) | (uid[rows[1:]] != uid[rows[:-1]])
    rows = rows[earliest]
    rows = rows[np.lexsort((rows, t[rows], root[rows]))]

    originals = np.flatnonzero(parent < 0)
    n_shares = np.diff(np.append(np.searchsorted(root[rows], originals), len(rows)))
    if retweeted_only:
        originals, n_shares = originals[n_shares > 0], n_shares[n_shares > 0]
    # each author ahead of its resharers: a stable sort by root
    flat = np.concatenate([originals, rows])
    flat = flat[np.argsort(root[flat], kind="stable")]
    ptr = np.zeros(len(originals) + 1, dtype=np.int64)
    np.cumsum(n_shares + 1, out=ptr[1:])
    arrays = ptr, uid[flat], t[flat]
    for a in arrays:  # read-only, so the slot pairs kept on them never go stale
        a.setflags(write=False)
    return Episodes(*arrays, tuple(trace.pid[originals].tolist()))


# slots per block: keeps the per-slot temporaries of one pass near 1 MB
BLOCK_SLOTS = 1 << 15


def key_dtype(n_users: int) -> type:
    """Dtype of the pair keys ``i * n_users + j``: int32 while they fit."""
    return np.int32 if n_users * n_users < 2**31 else np.int64


@dataclass(frozen=True)
class Slots:
    """Every episode's predecessor slots, one CSR row per (episode, resharer).

    ``users``/``times`` are the :class:`Episodes` arrays themselves.  Row ``r``
    is the resharer at flat index ``stop[r]`` of episode ``episode_ids[r]``;
    its slots are the users ahead of it, ``users[start[r]:stop[r]]``, the
    author first.  Rows follow episode order, then position, exactly like the
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

    def blocks(self) -> Iterator[tuple[int, "Slots"]]:
        """``(first slot, block)`` for the rows in order, in runs of at most ``BLOCK_SLOTS`` slots.

        A row longer than that is a block of its own; without rows there
        is one empty block.
        """
        ptr = self.row_ptr
        lo = 0
        while True:
            hi = int(np.searchsorted(ptr, ptr[lo] + BLOCK_SLOTS, side="right")) - 1
            hi = min(max(hi, lo + 1), len(self.stop))
            yield int(ptr[lo]), Slots(self.users, self.times, self.start[lo:hi],
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
        for at, blk in self.blocks():
            part = self.users[blk.gather()].astype(dtype, copy=False)
            part *= n_users
            part += np.repeat(self.users[blk.stop].astype(dtype), blk.row_len)
            out[at:at + len(part)] = part
        return out


def predecessor_slots(episodes: Episodes) -> Slots:
    """Index the episodes' CSR-ordered predecessor slots, sharing their arrays."""
    ptr = episodes.ptr
    ep_of = np.repeat(np.arange(len(episodes), dtype=np.int64), np.diff(ptr))
    resharer = np.ones(len(ep_of), dtype=bool)
    resharer[ptr[:-1]] = False
    stop = np.flatnonzero(resharer)
    episode_ids = ep_of[stop]
    return Slots(episodes.users, episodes.times, ptr[episode_ids], stop, episode_ids)


@dataclass
class PairTable:
    """Sparse per-ordered-pair storage for the active pairs of a trace.

    Rows are sorted lexicographically by ``(i, j)``, so by key
    ``i * n_users + j``, and :meth:`ids` looks pairs up by a binary search of
    those keys.  ``m`` holds the episode counts; ``sigma``/``q`` are mutable
    slots used by the EM loop and start at zero.  A table from
    :func:`pair_counts` has ``slot_ids``, each predecessor slot's row in
    :meth:`Slots.keys` order.
    """

    n_users: int
    pairs: np.ndarray  # (P, 2) int32
    m: np.ndarray  # (P,) float64
    sigma: np.ndarray = field(default=None, repr=False)
    q: np.ndarray = field(default=None, repr=False)
    slot_ids: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma is None:
            self.sigma = np.zeros(len(self.m))
        if self.q is None:
            self.q = np.zeros(len(self.m))

    @property
    def n_pairs(self) -> int:
        return len(self.m)

    @cached_property
    def _keys(self) -> np.ndarray:
        """The pairs' keys ``i * n_users + j``, ascending; built on the first
        lookup and kept."""
        return self.pairs[:, 0].astype(np.int64) * self.n_users + self.pairs[:, 1]

    @cached_property
    def m_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct counts in ``m``, ascending, and each pair's index into them.

        Built on first use and kept, so the fits sharing one table sort
        ``m`` once between them.
        """
        return np.unique(self.m, return_inverse=True)

    def ids(self, src, dst) -> np.ndarray:
        """Row of each pair ``(src, dst)`` in the table, -1 where it is absent.

        A user outside ``0..n_users-1`` is in no pair.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        n = self.n_users
        inside = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
        keys = np.where(inside, src * n + dst, -1)
        if not self.n_pairs:
            return np.full(keys.shape, -1, dtype=np.intp)
        flat = keys.ravel()
        # numpy's binary search narrows from the previous hit, so sorted
        # queries run about twice as fast
        order = np.argsort(flat)
        at = np.empty(len(flat), dtype=np.intp)
        at[order] = np.searchsorted(self._keys, flat[order])
        np.minimum(at, len(self._keys) - 1, out=at)
        at[self._keys[at] != flat] = -1
        return at.reshape(keys.shape)


def _slot_pairs(episodes: Episodes, n_users: int) -> tuple:
    """``pairs``, ``m`` and the slots' pair ids, read-only.

    With at least as many slots as keys, the keys are counted into one array
    over all keys, and a dense index, each key's row or -1, overwrites them
    with their ids block by block (``np.take(index, keys, out=keys)`` would
    copy them all first); no table keeps the index.  Otherwise ``np.unique``
    counts them and returns their ids (its inverse), the only way that
    scales to sparse traces over many users."""
    keys = predecessor_slots(episodes).keys(n_users)
    if n_users * n_users <= len(keys):
        # np.add.at reads the int32 keys as they are; np.bincount would
        # copy them to intp first
        counts = np.zeros(n_users * n_users, dtype=np.int64)
        np.add.at(counts, keys, 1)
        pair_keys = np.flatnonzero(counts)
        counts = counts[pair_keys]
        index = np.full(n_users * n_users, -1, dtype=keys.dtype)
        index[pair_keys] = np.arange(len(pair_keys))
        for lo in range(0, len(keys), BLOCK_SLOTS):
            keys[lo:lo + BLOCK_SLOTS] = index[keys[lo:lo + BLOCK_SLOTS]]
    else:
        pair_keys, keys[:], counts = np.unique(keys, return_inverse=True,
                                               return_counts=True)
    pairs = np.empty((len(pair_keys), 2), dtype=np.int32)
    pairs[:, 0], pairs[:, 1] = np.divmod(pair_keys, n_users)
    out = pairs, counts.astype(np.float64), keys
    for a in out:
        a.setflags(write=False)
    return out


def pair_counts(episodes: Episodes, n_users: int) -> PairTable:
    """Count, per ordered user pair, the episodes where ``i`` precedes ``j``.

    The counting pass (:func:`_slot_pairs`) runs once per ``episodes`` and
    ``n_users`` and is kept on ``episodes``; each call returns a fresh table
    over its read-only arrays, with its own ``sigma`` and ``q``.
    """
    if n_users not in episodes._slot_pairs:
        episodes._slot_pairs[n_users] = _slot_pairs(episodes, n_users)
    pairs, m, slot_ids = episodes._slot_pairs[n_users]
    table = PairTable(n_users, pairs, m)
    table.slot_ids = slot_ids
    return table


def trace_to_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace back out in the canonical CSV format.

    Timestamps are integer ticks when every one is a non-negative integer,
    and RFC3339 UTC strings otherwise (possible after RFC3339 parsing): one
    style per file, so the file parses back to the same trace.
    """
    t = trace.t
    if np.all((t >= 0) & (t == np.floor(t))):
        stamps = [str(int(x)) for x in t.tolist()]
    else:
        stamps = [datetime.fromtimestamp(x, tz=timezone.utc).isoformat() for x in t.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["pid", "t", "uid", "rid"])
        writer.writerows(zip(trace.pid.tolist(), stamps, trace.uid_tokens(),
                             trace.rid_tokens()))


def trace_from_string(text: str, **kwargs) -> Trace:
    return parse_trace(io.StringIO(text), **kwargs)
