import io
import logging

import numpy as np
import pytest

from cemnet.simulate import SimConfig, simulate
from cemnet.trace import (
    Episodes,
    PairTable,
    Trace,
    TraceFormatError,
    TraceRecord,
    _bulk_columns,
    _row_columns,
    _trace,
    build_episodes,
    pair_counts,
    parse_trace,
    predecessor_slots,
    read_utf8,
    trace_from_string,
    trace_to_csv,
)
from conftest import episode_lists, make_episodes, random_episodes


def _m(table, i, j) -> float:
    """Episode count of pair (i, j), 0 where the pair is not active."""
    k = int(table.ids(i, j))
    return 0.0 if k < 0 else float(table.m[k])


def test_parse_t1(t1):
    assert len(t1.pid) == len(t1.records) == 6
    assert t1.n_users == 3
    assert t1.pid[t1.parent < 0].tolist() == ["P1", "P3"]
    assert t1.users == ("U1", "U2", "U3")
    assert t1.uid.dtype == np.int32 and t1.uid.tolist() == [0, 1, 1, 2, 2, 0]
    assert t1.parent.tolist() == [-1, 0, -1, 1, 2, 2]
    assert t1.t.tolist() == [920.0, 930.0, 935.0, 940.0, 945.0, 950.0]


def test_from_columns_matches_parse(t1):
    cols = (t1.pid.tolist(), t1.t.tolist(), t1.uid_tokens(), t1.rid_tokens())
    assert cols[3] == ["-1", "P1", "-1", "P2", "P3", "P3"]
    tr = Trace.from_columns(*cols)
    for name in ("pid", "t", "uid", "parent", "root"):
        assert getattr(tr, name).tolist() == getattr(t1, name).tolist()
    assert tr.users == t1.users and tr.uid_index == t1.uid_index == {"U1": 0, "U2": 1, "U3": 2}
    # without file lines, row r is named as the line under a header
    with pytest.raises(TraceFormatError, match="row 3: rid 'P9'"):
        Trace.from_columns(["a", "b"], [1.0, 2.0], ["u", "v"], ["-1", "P9"])


def test_records_view_is_a_read_only_tuple(t1):
    recs = t1.records
    assert isinstance(recs, tuple) and recs is t1.records
    assert recs[0] == TraceRecord("P1", 920.0, "U1", None)
    assert recs[3] == TraceRecord("P4", 940.0, "U3", "P2")
    with pytest.raises(AttributeError):
        t1.pid = None


def test_parse_empty_stream():
    with pytest.raises(TraceFormatError, match="empty trace"):
        parse_trace(io.StringIO(""))
    with pytest.raises(TraceFormatError, match="empty trace"):
        parse_trace(io.StringIO("pid,t,uid,rid\n"))


def test_parse_missing_rid_reference():
    bad = "pid,t,uid,rid\nP1,10,U1,-1\nP2,20,U2,P9\n"
    with pytest.raises(TraceFormatError, match="P9"):
        trace_from_string(bad)


EARLY_REPOST = "pid,t,uid,rid\np1,10,a,-1\np2,5,b,p1\np3,12,c,p2\n"


def test_parse_rejects_repost_before_its_parent():
    # p2 sits on file line 3, the header being line 1
    with pytest.raises(TraceFormatError, match="row 3: repost 'p2'.*parent 'p1'"):
        parse_trace(io.StringIO(EARLY_REPOST))
    # a repost at its parent's time is fine
    tr = parse_trace(io.StringIO("pid,t,uid,rid\np1,10,a,-1\np2,10,b,p1\n"))
    assert build_episodes(tr).times.tolist() == [10.0, 10.0]


def test_parse_duplicate_pid():
    bad = "pid,t,uid,rid\nP1,10,U1,-1\nP1,20,U2,-1\n"
    with pytest.raises(TraceFormatError, match="duplicate pid"):
        trace_from_string(bad)


@pytest.mark.parametrize("text, message", [
    ("P1,1,U1,-1\n\nP1,2,U2,-1\n", "duplicate pid 'P1' at row 4"),
    ("P1,1,U1,-1\n\nP2,2,U2,PX\n", "row 4: rid 'PX' does not match"),
    ("P1,5,U1,-1\n\n\nP2,2,U2,P1\n", "row 5: repost 'P2'"),
    ("P1,5,U1\n", "row 2: expected 4 fields"),
    ("\nP1,5,U1,-1\nP2,x,U2,P1\n", "row 4: timestamp 'x' is not an integer"),
])
def test_errors_name_the_file_line(text, message):
    with pytest.raises(TraceFormatError, match=message):
        trace_from_string("pid,t,uid,rid\n" + text)


def test_first_bad_row_in_file_order_is_reported():
    # a bad timestamp on line 2 comes before the short row on line 3
    with pytest.raises(TraceFormatError, match="row 2: negative"):
        trace_from_string("pid,t,uid,rid\nP1,-1,U1,-1\nP2,1,U2\n")
    with pytest.raises(TraceFormatError, match="row 2: negative"):
        trace_from_string("pid,t,uid,rid\nP1,-1,U1,-1\nP2,x,U2,P1\n")
    with pytest.raises(TraceFormatError, match="row 3: expected 4"):
        trace_from_string("pid,t,uid,rid\nP1,1,U1,-1\nP2,1,U2\nP3,x,U3,-1\n")


def test_unreadable_input_is_a_format_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"pid,t,uid,rid\nP1,1,U1,-1\nP2,2,U\xff2,P1\n")
    with pytest.raises(TraceFormatError, match="row 3: byte 0xff is not UTF-8"):
        parse_trace(path)
    with pytest.raises(TraceFormatError, match="row 2: field larger than field limit"):
        trace_from_string("pid,t,uid,rid\n\"" + "x" * 200_000 + "\",1,U1,-1\n")
    # unquoted, the line is otherwise canonical: the row loop still refuses it
    with pytest.raises(TraceFormatError, match="row 2: field larger than field limit"):
        trace_from_string("pid,t,uid,rid\n" + "x" * 200_000 + ",1,U1,-1\n")
    with pytest.raises(TraceFormatError, match="row 2: timestamp '1000.*out of range"):
        trace_from_string("pid,t,uid,rid\nP1,1" + "0" * 400 + ",U1,-1\n")


def test_parse_bad_arity_and_timestamp():
    with pytest.raises(TraceFormatError, match="row 2"):
        trace_from_string("pid,t,uid,rid\nP1,10,U1\n")
    with pytest.raises(TraceFormatError, match="timestamp"):
        trace_from_string("pid,t,uid,rid\nP1,notatime,U1,-1\n")
    with pytest.raises(TraceFormatError, match="negative"):
        trace_from_string("pid,t,uid,rid\nP1,-5,U1,-1\n")


def test_parse_rfc3339_and_homogeneity():
    ok = ("pid,t,uid,rid\n"
          "P1,2017-03-01T09:20:00Z,U1,-1\n"
          "P2,2017-03-01T09:30:00Z,U2,P1\n")
    t = trace_from_string(ok)
    assert t.t[1] - t.t[0] == 600.0
    mixed = ("pid,t,uid,rid\n"
             "P1,2017-03-01T09:20:00Z,U1,-1\n"
             "P2,600,U2,P1\n")
    with pytest.raises(TraceFormatError, match="mixed|unparsable"):
        trace_from_string(mixed)


# token characters of a canonical file: printable ASCII but space, '"' and ','
_TOKEN_CHARS = "".join(chr(b) for b in range(0x21, 0x7F) if chr(b) not in '",')


def _canonical_lines(rng) -> list[str]:
    """A random trace in canonical form, one string per line with the header.

    Rows may repeat a pid, point at a missing or later pid, or precede
    their parent, so some files fail in ``Trace.from_columns``.
    """
    n_rows = int(rng.integers(1, 40))
    lines = ["pid,t,uid,rid"]
    for row in range(n_rows):
        pick = rng.uniform()
        rid = ("-1" if row == 0 or pick < 0.25 else
               f"x{int(rng.integers(0, 3))}" if pick < 0.3 else
               f"p{int(rng.integers(0, n_rows))}" if pick < 0.35 else
               f"p{int(rng.integers(0, row))}")
        pid = f"p{row}" if rng.uniform() > 0.02 else f"p{int(rng.integers(0, n_rows))}"
        # mostly in row order, sometimes zero-padded or 15 digits wide
        stamp = str(row * 10 + int(rng.integers(0, 15)))
        if rng.uniform() < 0.1:
            stamp = stamp.zfill(int(rng.integers(1, 16)))
        uid = "u" + "".join(rng.choice(list(_TOKEN_CHARS), size=int(rng.integers(0, 3))))
        lines.append(f"{pid},{stamp},{uid},{rid}")
    return lines


def _token(change):
    """A row change that rewrites field ``k`` by ``change``."""
    return lambda fields, k: fields[:k] + [change(fields[k])] + fields[k + 1:]


def _stamp(stamp):
    return lambda fields, k: [fields[0], stamp, *fields[2:]]


def _with_blank_line(lines, k):
    return "\n".join(lines[:k] + [""] + lines[k:]) + "\n"


# one change each to one random row (field k of it, k random)
_ROW_CHANGES = {
    "quote": _token(lambda tok: f'"{tok}"'),
    "space": _token(lambda tok: " " + tok),
    "tab": _token(lambda tok: tok + "\t"),
    "nul": _token(lambda tok: tok + "\0"),
    "e_acute": _token(lambda tok: tok + "\u00e9"),
    "plus": _stamp("+5"),
    "minus": _stamp("-5"),
    "digits16": _stamp("1234567890123456"),
    "rfc3339": _stamp("2017-03-01T09:20:00Z"),
    "empty_pid": lambda fields, k: ["", *fields[1:]],
    "empty_uid": lambda fields, k: [*fields[:2], "", fields[3]],
    "three_fields": lambda fields, k: fields[:k] + fields[k + 1:],
    "five_fields": lambda fields, k: fields[:k] + ["x"] + fields[k:],
}
# one change each to the file as a whole, from its lines
_FILE_CHANGES = {
    "cr": lambda lines, rng: "\n".join(lines[:-1]) + "\r" + lines[-1] + "\n",
    "crlf": lambda lines, rng: "\r\n".join(lines) + "\r\n",
    "bom": lambda lines, rng: "\ufeff" + "\n".join(lines) + "\n",
    "blank": lambda lines, rng: _with_blank_line(lines, int(rng.integers(1, len(lines) + 1))),
    "bad_header": lambda lines, rng: "\n".join(
        [str(rng.choice(["pid,t,uid,rd", "pid,t,uid", "PID,t,uid,rid"])), *lines[1:]]) + "\n",
}


def _changed_files(lines, rng):
    """``(name, text)`` per change above, each applied to ``lines`` once."""
    for name, change in _ROW_CHANGES.items():
        row = int(rng.integers(1, len(lines)))
        fields = change(lines[row].split(","), int(rng.integers(0, 4)))
        yield name, "\n".join([*lines[:row], ",".join(fields), *lines[row + 1:]]) + "\n"
    for name, change in _FILE_CHANGES.items():
        yield name, change(lines, rng)


def _outcome(parse):
    """The trace's arrays, users and uid index, or the exception's type and message."""
    try:
        tr = parse()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return ([getattr(tr, name).tolist() for name in ("pid", "t", "uid", "parent", "root")],
            tr.users, tr.uid_index)


def _assert_same_as_row_loop(text, tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    for drop in (False, True):
        want = _outcome(lambda: _trace(_row_columns(io.StringIO(text)), drop))
        assert _outcome(lambda: parse_trace(io.StringIO(text), drop_orphans=drop)) == want
        want = _outcome(lambda: _trace(_row_columns(read_utf8(path, TraceFormatError)), drop))
        assert _outcome(lambda: parse_trace(path, drop_orphans=drop)) == want


def test_bulk_reader_matches_the_row_loop(rng, tmp_path):
    """Canonical files take the bulk path, and one change puts them on the
    row loop; either way, the trace or the error is the row loop's."""
    for _ in range(30):
        lines = _canonical_lines(rng)
        text = "\n".join(lines) + ("\n" if rng.uniform() < 0.8 else "")
        assert _bulk_columns(text) is not None
        _assert_same_as_row_loop(text, tmp_path)
        for name, changed in _changed_files(lines, rng):
            assert _bulk_columns(changed) is None, name
            _assert_same_as_row_loop(changed, tmp_path)


def test_simulated_trace_takes_the_bulk_path(tmp_path):
    trace = simulate(SimConfig(n_users=30, n_blocks=2, n_events=2000, seed=4)).trace
    path = tmp_path / "t.csv"
    trace_to_csv(trace, path)
    assert _bulk_columns(path.read_text()) is not None
    back = parse_trace(path)
    assert back.records == trace.records and back.uid_index == trace.uid_index


def test_drop_orphans_transitive(caplog):
    rows = ("pid,t,uid,rid\n"
            "P1,10,U1,-1\n"
            "P2,20,U2,P0\n"  # orphan: P0 absent
            "P3,30,U3,P2\n"  # depends on the dropped P2
            "P4,40,U4,P1\n"
            "P5,50,U5,P3\n")  # two steps behind the dropped P2
    with pytest.raises(TraceFormatError):
        trace_from_string(rows)
    with caplog.at_level(logging.WARNING, logger="cemnet.trace"):
        t = trace_from_string(rows, drop_orphans=True)
    assert t.pid.tolist() == ["P1", "P4"]
    assert t.users == ("U1", "U4") and t.parent.tolist() == [-1, 0]
    assert [r.getMessage() for r in caplog.records] == [
        "dropping orphan repost P2 (rid P0)",
        "dropping orphan repost P3 (rid P2)",
        "dropping orphan repost P5 (rid P3)",
    ]


def _reference_drop_orphans(rows):
    """``(pid, rid)`` rows kept by the per-row loop the array pass replaced."""
    known = {pid for pid, _ in rows}
    kept, dropped = [], set()
    for pid, rid in rows:
        if rid != "-1" and (rid not in known or rid in dropped):
            dropped.add(pid)
            continue
        kept.append((pid, rid))
    again = [r for r in kept if r[1] in dropped]
    while again:  # a drop can orphan later rows already checked against `known`
        dropped.update(pid for pid, _ in again)
        kept = [r for r in kept if r[0] not in dropped]
        again = [r for r in kept if r[1] in dropped]
    return kept


def test_drop_orphans_matches_reference(rng):
    """Random forests with dangling rids, forward references and chains behind them."""
    for _ in range(40):
        n_rows = int(rng.integers(1, 60))
        rows = []
        for row in range(n_rows):
            pick = rng.uniform()
            rid = ("-1" if row == 0 or pick < 0.2 else
                   f"x{int(rng.integers(0, 3))}" if pick < 0.35 else
                   f"p{int(rng.integers(0, n_rows))}" if pick < 0.4 else  # may point forwards
                   f"p{int(rng.integers(0, row))}")
            rows.append((f"p{row}", rid))
        text = "pid,t,uid,rid\n" + "".join(f"{p},0,u{k % 5},{r}\n" for k, (p, r) in enumerate(rows))
        want = _reference_drop_orphans(rows)
        try:
            tr = trace_from_string(text, drop_orphans=True)
        except TraceFormatError as exc:  # only cycles survive the drop
            assert "cycle" in str(exc) and want
            continue
        assert list(zip(tr.pid.tolist(), tr.rid_tokens())) == want


def test_resolve_root_t1(t1):
    # P4 reshares P2, which reshares P1: P4's user joins P1's episode
    assert t1.pid[t1.root].tolist() == ["P1", "P1", "P3", "P1", "P3", "P3"]
    assert build_episodes(t1).root_pids == ("P1", "P3")
    assert episode_lists(build_episodes(t1))[0][0] == (0, 1, 2)


def test_resolve_root_deep_chain():
    rows = ["pid,t,uid,rid", "p0,0,u0,-1"]
    for d in range(1, 6):
        rows.append(f"p{d},{10 * d},u{d},p{d - 1}")
    t = trace_from_string("\n".join(rows) + "\n")
    assert t.root.tolist() == [0] * 6
    eps = build_episodes(t)
    assert eps.root_pids == ("p0",)
    assert episode_lists(eps) == [((0, 1, 2, 3, 4, 5), (0.0, 10.0, 20.0, 30.0, 40.0, 50.0))]


def test_resolve_root_cycle_detected():
    # equal times: a cycle with any earlier repost fails the parent-time check
    with pytest.raises(TraceFormatError, match="rid cycle detected at pid 'a'"):
        trace_from_string("pid,t,uid,rid\na,1,u1,b\nb,1,u2,a\n")
    with pytest.raises(TraceFormatError, match="row 2: repost 'a'.*precedes"):
        trace_from_string("pid,t,uid,rid\na,1,u1,b\nb,2,u2,a\n")


def test_build_episodes_t1(t1):
    eps = build_episodes(t1)
    assert isinstance(eps, Episodes) and len(eps) == 2
    assert eps.root_pids == ("P1", "P3")
    assert eps.ptr.tolist() == [0, 3, 6]
    assert eps.users.dtype == np.int32 and eps.times.dtype == np.float64
    names = [[t1.users[u] for u in users] for users, _ in episode_lists(eps)]
    assert names[0] == ["U1", "U2", "U3"]
    assert names[1] == ["U2", "U3", "U1"]
    assert episode_lists(eps)[0][1] == (920.0, 930.0, 940.0)


def test_build_episodes_filtering():
    t = trace_from_string("pid,t,uid,rid\nP1,10,U1,-1\n")
    eps = build_episodes(t)
    assert len(eps) == 0 and eps.ptr.tolist() == [0] and eps.root_pids == ()
    assert len(eps.users) == len(eps.times) == 0
    assert episode_lists(build_episodes(t, retweeted_only=False)) == [((0,), (10.0,))]


def test_duplicate_reshare_kept_earliest():
    rows = ("pid,t,uid,rid\n"
            "P1,10,U1,-1\n"
            "P2,20,U2,P1\n"
            "P3,30,U2,P1\n")  # same user reshares the same root again
    t = trace_from_string(rows)
    assert episode_lists(build_episodes(t)) == [((0, 1), (10.0, 20.0))]


def test_author_reshare_of_own_root_dropped():
    rows = ("pid,t,uid,rid\n"
            "P1,10,U1,-1\n"
            "P2,20,U2,P1\n"
            "P3,30,U1,P2\n")  # author circles back to their own post
    t = trace_from_string(rows)
    assert build_episodes(t).users.tolist() == [0, 1]


def test_tie_break_by_row_order():
    rows = ("pid,t,uid,rid\n"
            "P1,10,U1,-1\n"
            "P2,20,U3,P1\n"
            "P3,20,U2,P1\n")  # same tick: U3 row comes first
    t = trace_from_string(rows)
    eps = build_episodes(t)
    assert [t.users[u] for u in eps.users] == ["U1", "U3", "U2"]
    table = pair_counts(eps, t.n_users)
    u = t.uid_index
    assert _m(table, u["U3"], u["U2"]) == 1.0
    assert _m(table, u["U2"], u["U3"]) == 0.0


def test_pair_counts_t1(t1):
    eps = build_episodes(t1)
    table = pair_counts(eps, t1.n_users)
    u = t1.uid_index
    assert _m(table, u["U2"], u["U3"]) == 2.0
    assert _m(table, u["U1"], u["U2"]) == 1.0
    assert _m(table, u["U2"], u["U1"]) == 1.0
    assert _m(table, u["U3"], u["U2"]) == 0.0
    assert table.n_pairs == 5


def test_pair_counts_single_episode():
    eps = make_episodes([((0, 1, 2), (1.0, 2.0, 3.0))])
    table = pair_counts(eps, 3)
    assert _m(table, 0, 1) == _m(table, 0, 2) == _m(table, 1, 2) == 1.0
    assert table.n_pairs == 3


def test_pair_count_total_identity(rng):
    eps = random_episodes(rng)
    table = pair_counts(eps, 8)
    expected = sum(len(u) * (len(u) - 1) // 2 for u, _ in episode_lists(eps))
    assert table.m.sum() == expected


def test_pair_counts_order_insensitive(rng):
    eps = random_episodes(rng)
    t_fwd = pair_counts(eps, 8)
    t_rev = pair_counts(make_episodes(reversed(episode_lists(eps))), 8)
    assert np.array_equal(t_fwd.pairs, t_rev.pairs)
    assert np.array_equal(t_fwd.m, t_rev.m)


def _assert_ids_match_a_pair_dict(table: PairTable, rng) -> None:
    """Absent pairs, users out of range, scalar, 2-D, broadcast and empty
    queries of ``table.ids`` against a dict of its pairs' rows."""
    n = table.n_users
    row = {p: k for k, p in enumerate(map(tuple, table.pairs.tolist()))}
    span = (-3, n + 3)
    queries = [
        (rng.integers(*span, size=300), rng.integers(*span, size=300)),
        (rng.integers(*span, size=(4, 7)), rng.integers(*span, size=(4, 7))),
        (rng.integers(*span, size=(4, 1)), rng.integers(*span, size=5)),
        (np.int64(n // 2), 0), (-1, n), (n, -1),
        (np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)),
    ]
    for src, dst in queries:
        got = table.ids(src, dst)
        src, dst = np.broadcast_arrays(src, dst)
        assert got.dtype == np.intp and got.shape == src.shape
        want = [row.get(p, -1) for p in zip(src.ravel().tolist(), dst.ravel().tolist())]
        assert got.ravel().tolist() == want


def _assert_slot_ids_are_the_searched_ids(eps: Episodes, table: PairTable) -> None:
    """The slot ids the counting pass wrote are ``table.ids`` of each slot's pair."""
    src, dst = np.divmod(predecessor_slots(eps).keys(table.n_users).astype(np.int64),
                         max(table.n_users, 1))
    assert np.array_equal(table.slot_ids, table.ids(src, dst))
    assert (table.slot_ids >= 0).all()


@pytest.mark.parametrize("n_users", [0, 1, 2, 3, 5, 6, 8])
def test_ids_match_a_pair_dict(rng, n_users):
    for density in rng.uniform(size=10).tolist():
        keys = np.flatnonzero(rng.uniform(size=n_users ** 2) < density)
        pairs = np.column_stack(np.divmod(keys, max(n_users, 1))).astype(np.int32)
        _assert_ids_match_a_pair_dict(PairTable(n_users, pairs, np.ones(len(pairs))), rng)


@pytest.mark.parametrize("n_users", [2, 3, 5, 8])
def test_dense_index_and_sorted_keys_give_the_same_ids(rng, n_users):
    """With at least one slot per key the counting pass maps slots to pair
    ids through its dense index; a table's lookup searches its sorted keys."""
    for _ in range(20):
        # every episode has a slot, so N**2 episodes reach the dense path
        eps = random_episodes(rng, n_users=n_users,
                              n_episodes=int(rng.integers(n_users ** 2, 2 * n_users ** 2)),
                              max_len=int(rng.integers(2, n_users + 1)))
        table = pair_counts(eps, n_users)
        assert n_users ** 2 <= len(table.slot_ids)
        _assert_slot_ids_are_the_searched_ids(eps, table)
        _assert_ids_match_a_pair_dict(table, rng)


@pytest.mark.parametrize("n_users", [0, 1, 2, 6])
def test_lookup_paths_agree_without_pairs(rng, n_users):
    """A table built without pairs and one counted from no episodes find none."""
    plain = PairTable(n_users, np.zeros((0, 2), dtype=np.int32), np.zeros(0))
    counted = pair_counts(make_episodes([]), n_users)
    assert counted.n_pairs == 0 and len(counted.slot_ids) == 0
    for table in (plain, counted):
        _assert_ids_match_a_pair_dict(table, rng)


@pytest.mark.parametrize("counted", [False, True])
def test_users_out_of_range_are_in_no_pair(counted):
    if counted:
        eps = make_episodes([((1, 2), (1.0, 2.0)), ((2, 3), (1.0, 2.0))])
        table = pair_counts(eps, 4)
        assert table.pairs.tolist() == [[1, 2], [2, 3]]
    else:
        table = PairTable(4, np.array([[1, 2], [2, 3]], dtype=np.int32), np.ones(2))
    assert int(table.ids(1, 2)) == 0 and int(table.ids(2, 3)) == 1
    # 0 * 4 + 6 and 3 * 4 - 1 are the keys of (1, 2) and (2, 3)
    assert int(table.ids(0, 6)) == -1
    assert int(table.ids(3, -1)) == -1
    assert table.ids([0, 1, 4, 2], [6, 2, -10, 3]).tolist() == [-1, 0, -1, 1]


def test_simulated_trace_gets_the_dense_index():
    """The default simulated trace has a slot per key, so its counting pass
    takes the dense path; every slot's id is its pair's row."""
    trace = simulate(SimConfig(seed=3)).trace
    assert trace.n_users == 100
    eps = build_episodes(trace)
    table = pair_counts(eps, trace.n_users)
    assert trace.n_users ** 2 <= len(table.slot_ids)
    _assert_slot_ids_are_the_searched_ids(eps, table)
    assert np.array_equal(np.bincount(table.slot_ids, minlength=table.n_pairs), table.m)


def test_episode_is_permutation_with_author_first(t1):
    for users, times in episode_lists(build_episodes(t1)):
        assert len(set(users)) == len(users)
        assert times[0] == min(times)
        assert all(a <= b for a, b in zip(times, times[1:]))


def test_head_prefix(t1):
    h = t1.head(2)
    assert len(h.records) == 2
    assert h.users == ("U1", "U2") and h.parent.tolist() == [-1, 0]
    assert t1.head(100) is t1
    assert episode_lists(build_episodes(t1.head(4))) == [((0, 1, 2), (920.0, 930.0, 940.0))]
    with pytest.raises(TraceFormatError, match="empty trace"):
        t1.head(0)
    # a repost listed before its parent: the prefix would lose the parent
    fwd = trace_from_string("pid,t,uid,rid\nP2,5,U2,P1\nP1,5,U1,-1\n")
    with pytest.raises(TraceFormatError, match="row 2: rid 'P1' does not match any pid"):
        fwd.head(1)


def test_build_episodes_cycle_detected():
    with pytest.raises(TraceFormatError, match="rid cycle detected at pid 'a'"):
        build_episodes(trace_from_string("pid,t,uid,rid\np0,0,u0,-1\na,1,u1,b\nb,1,u2,a\n"))
    # a row behind a cycle is caught too
    with pytest.raises(TraceFormatError, match="rid cycle detected at pid 'c'"):
        trace_from_string("pid,t,uid,rid\nc,1,u0,a\na,1,u1,b\nb,1,u2,a\n")


@pytest.mark.parametrize("stamps", [
    ("2024-01-01T00:00:00Z", "2024-01-01T00:00:00.5Z", "2024-01-01T00:00:03Z"),
    ("1969-12-31T23:59:00Z", "1970-01-01T00:00:00Z", "1970-01-01T00:00:01Z"),
    ("0", "7", "7"),
])
def test_trace_to_csv_round_trips(tmp_path, stamps):
    text = "pid,t,uid,rid\nP1,{},U1,-1\nP2,{},U2,P1\nP3,{},\"U,3\",P2\n".format(*stamps)
    tr = trace_from_string(text)
    path = tmp_path / "t.csv"
    trace_to_csv(tr, path)
    back = parse_trace(path)
    assert back.records == tr.records
    assert back.t.tobytes() == tr.t.tobytes()
    # one timestamp style per file
    styles = {s.split(",")[1].isdigit() for s in path.read_text().splitlines()[1:]}
    assert len(styles) == 1


def resolve_root(by_pid, pid, memo):
    """Follow the rid chain from ``pid`` to the original post it reshares."""
    path: list[str] = []
    cur = pid
    while cur not in memo:
        rec = by_pid[cur]
        if rec.rid is None:
            memo[cur] = cur
            break
        path.append(cur)
        cur = rec.rid
        if cur in path:
            raise TraceFormatError(f"rid cycle detected at pid {cur!r}")
    root = memo[cur]
    for p in path:
        memo[p] = root
    return root


def _reference_episodes(trace, retweeted_only=True):
    """Per-row dict grouping over resolve_root, the definition of an episode.

    ``(root_pid, users, times)`` per episode.
    """
    by_pid = {rec.pid: rec for rec in trace.records}
    memo: dict = {}
    resharers: dict = {}
    for row, rec in enumerate(trace.records):
        if rec.rid is None:
            continue
        entry = resharers.setdefault(resolve_root(by_pid, rec.pid, memo), {})
        uid, key = trace.uid_index[rec.uid], (rec.t, row)
        if uid not in entry or key < entry[uid]:
            entry[uid] = key
    out = []
    for root in trace.records:
        if root.rid is not None:
            continue
        author = trace.uid_index[root.uid]
        entry = resharers.get(root.pid, {})
        entry.pop(author, None)
        if not entry and retweeted_only:
            continue
        ordered = sorted(entry.items(), key=lambda kv: kv[1])
        out.append((root.pid, (author,) + tuple(u for u, _ in ordered),
                    (root.t,) + tuple(t for _, (t, _) in ordered)))
    return out


@pytest.mark.parametrize("retweeted_only", [True, False])
def test_build_episodes_matches_reference(rng, retweeted_only):
    """Random forests of reshare chains with tied times, repeat and author reshares."""
    for _ in range(30):
        n_rows = int(rng.integers(1, 120))
        lines, times = [], []
        for row in range(n_rows):
            t = int(rng.integers(0, n_rows // 3 + 1))  # unordered, with ties
            uid = f"u{int(rng.integers(0, 9))}"
            parent = None if row == 0 or rng.uniform() < 0.2 else int(rng.integers(0, row))
            rid = "-1"
            if parent is not None:
                rid = f"p{parent}"
                t = max(t, times[parent])  # never before the reshared post
            times.append(t)
            lines.append(f"p{row},{t},{uid},{rid}")
        trace = trace_from_string("pid,t,uid,rid\n" + "\n".join(lines) + "\n")
        eps = build_episodes(trace, retweeted_only=retweeted_only)
        got = [(pid,) + ep for pid, ep in zip(eps.root_pids, episode_lists(eps))]
        assert got == _reference_episodes(trace, retweeted_only)


def test_naive_rfc3339_is_utc_under_any_host_timezone(monkeypatch):
    import time

    if not hasattr(time, "tzset"):
        pytest.skip("time.tzset is POSIX only")
    text = "pid,t,uid,rid\nP1,2024-01-01T00:00:00,U1,-1\nP2,2024-01-01T00:00:30Z,U2,P1\n"
    seen = []
    for tz in ("UTC", "Asia/Tokyo", "America/New_York"):
        monkeypatch.setenv("TZ", tz)
        time.tzset()
        seen.append(trace_from_string(text).t.tolist())
    monkeypatch.undo()
    time.tzset()
    assert seen == [[1704067200.0, 1704067230.0]] * 3
