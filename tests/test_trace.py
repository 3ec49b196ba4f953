import io

import numpy as np
import pytest

from cemnet.trace import (
    Episode,
    TraceFormatError,
    TraceRecord,
    Trace,
    build_episodes,
    pair_counts,
    parse_trace,
    resolve_root,
    trace_from_string,
)
from conftest import random_episodes


def test_parse_t1(t1):
    assert len(t1.records) == 6
    assert t1.n_users == 3
    assert t1.originals == ("P1", "P3")
    assert t1.users == ("U1", "U2", "U3")


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
    with pytest.raises(TraceFormatError, match="row 2: repost 'p2'.*parent 'p1'"):
        parse_trace(io.StringIO(EARLY_REPOST))
    # a repost at its parent's time is fine
    tr = parse_trace(io.StringIO("pid,t,uid,rid\np1,10,a,-1\np2,10,b,p1\n"))
    assert [ep.times for ep in build_episodes(tr)] == [(10.0, 10.0)]


def test_parse_duplicate_pid():
    bad = "pid,t,uid,rid\nP1,10,U1,-1\nP1,20,U2,-1\n"
    with pytest.raises(TraceFormatError, match="duplicate pid"):
        trace_from_string(bad)


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
    assert t.records[1].t - t.records[0].t == 600.0
    mixed = ("pid,t,uid,rid\n"
             "P1,2017-03-01T09:20:00Z,U1,-1\n"
             "P2,600,U2,P1\n")
    with pytest.raises(TraceFormatError, match="mixed|unparsable"):
        trace_from_string(mixed)


def test_drop_orphans_transitive():
    rows = ("pid,t,uid,rid\n"
            "P1,10,U1,-1\n"
            "P2,20,U2,P0\n"  # orphan: P0 absent
            "P3,30,U3,P2\n")  # depends on the dropped P2
    with pytest.raises(TraceFormatError):
        trace_from_string(rows)
    t = trace_from_string(rows, drop_orphans=True)
    assert [r.pid for r in t.records] == ["P1"]


def test_resolve_root_t1(t1):
    assert resolve_root(t1, "P4") == "P1"
    assert resolve_root(t1, "P1") == "P1"


def test_resolve_root_deep_chain():
    rows = ["pid,t,uid,rid", "p0,0,u0,-1"]
    for d in range(1, 6):
        rows.append(f"p{d},{10 * d},u{d},p{d - 1}")
    t = trace_from_string("\n".join(rows) + "\n")
    for d in range(6):
        assert resolve_root(t, f"p{d}") == "p0"


def test_resolve_root_cycle_detected():
    # equal times: a cycle with any earlier repost fails the parent-time check
    records = [
        TraceRecord("a", 1.0, "u1", "b"),
        TraceRecord("b", 1.0, "u2", "a"),
    ]
    t = Trace(records)
    with pytest.raises(TraceFormatError, match="cycle"):
        resolve_root(t, "a")
    with pytest.raises(TraceFormatError, match="precedes"):
        Trace([records[0], TraceRecord("b", 2.0, "u2", "a")])


def test_build_episodes_t1(t1):
    eps = build_episodes(t1)
    assert [e.root_pid for e in eps] == ["P1", "P3"]
    names = [[t1.users[u] for u in e.users] for e in eps]
    assert names[0] == ["U1", "U2", "U3"]
    assert names[1] == ["U2", "U3", "U1"]
    assert eps[0].times == (920.0, 930.0, 940.0)


def test_build_episodes_filtering():
    t = trace_from_string("pid,t,uid,rid\nP1,10,U1,-1\n")
    assert build_episodes(t) == []
    assert len(build_episodes(t, retweeted_only=False)) == 1


def test_duplicate_reshare_kept_earliest():
    rows = ("pid,t,uid,rid\n"
            "P1,10,U1,-1\n"
            "P2,20,U2,P1\n"
            "P3,30,U2,P1\n")  # same user reshares the same root again
    t = trace_from_string(rows)
    eps = build_episodes(t)
    assert len(eps) == 1
    assert eps[0].users == (0, 1)
    assert eps[0].times == (10.0, 20.0)


def test_author_reshare_of_own_root_dropped():
    rows = ("pid,t,uid,rid\n"
            "P1,10,U1,-1\n"
            "P2,20,U2,P1\n"
            "P3,30,U1,P2\n")  # author circles back to their own post
    t = trace_from_string(rows)
    eps = build_episodes(t)
    assert eps[0].users == (0, 1)


def test_tie_break_by_row_order():
    rows = ("pid,t,uid,rid\n"
            "P1,10,U1,-1\n"
            "P2,20,U3,P1\n"
            "P3,20,U2,P1\n")  # same tick: U3 row comes first
    t = trace_from_string(rows)
    eps = build_episodes(t)
    assert [t.users[u] for u in eps[0].users] == ["U1", "U3", "U2"]
    table = pair_counts(eps, t.n_users)
    u = t.uid_index
    assert table.m_of(u["U3"], u["U2"]) == 1.0
    assert table.m_of(u["U2"], u["U3"]) == 0.0


def test_pair_counts_t1(t1):
    eps = build_episodes(t1)
    table = pair_counts(eps, t1.n_users)
    u = t1.uid_index
    assert table.m_of(u["U2"], u["U3"]) == 2.0
    assert table.m_of(u["U1"], u["U2"]) == 1.0
    assert table.m_of(u["U2"], u["U1"]) == 1.0
    assert table.m_of(u["U3"], u["U2"]) == 0.0
    assert table.n_pairs == 5


def test_pair_counts_single_episode():
    eps = [Episode("r", (0, 1, 2), (1.0, 2.0, 3.0))]
    table = pair_counts(eps, 3)
    assert table.m_of(0, 1) == table.m_of(0, 2) == table.m_of(1, 2) == 1.0
    assert table.n_pairs == 3


def test_pair_count_total_identity(rng):
    eps = random_episodes(rng)
    table = pair_counts(eps, 8)
    expected = sum(len(e) * (len(e) - 1) // 2 for e in eps)
    assert table.m.sum() == expected


def test_pair_counts_order_insensitive(rng):
    eps = random_episodes(rng)
    t_fwd = pair_counts(eps, 8)
    t_rev = pair_counts(list(reversed(eps)), 8)
    assert np.array_equal(t_fwd.pairs, t_rev.pairs)
    assert np.array_equal(t_fwd.m, t_rev.m)


def test_episode_is_permutation_with_author_first(t1):
    for ep in build_episodes(t1):
        assert len(set(ep.users)) == len(ep.users)
        assert ep.times[0] == min(ep.times)
        assert all(a <= b for a, b in zip(ep.times, ep.times[1:]))


def test_head_prefix(t1):
    h = t1.head(2)
    assert len(h.records) == 2
    assert t1.head(100) is t1


def test_build_episodes_cycle_detected():
    records = [
        TraceRecord("p0", 0.0, "u0", None),
        TraceRecord("a", 1.0, "u1", "b"),
        TraceRecord("b", 1.0, "u2", "a"),
    ]
    with pytest.raises(TraceFormatError, match="cycle"):
        build_episodes(Trace(records))


def _reference_episodes(trace, retweeted_only=True):
    """Per-row dict grouping over resolve_root, the definition of an episode."""
    memo: dict = {}
    resharers: dict = {}
    for row, rec in enumerate(trace.records):
        if rec.rid is None:
            continue
        entry = resharers.setdefault(resolve_root(trace, rec.pid, memo), {})
        uid, key = trace.uid_index[rec.uid], (rec.t, row)
        if uid not in entry or key < entry[uid]:
            entry[uid] = key
    out = []
    for pid in trace.originals:
        root = trace.record_of(pid)
        author = trace.uid_index[root.uid]
        entry = resharers.get(pid, {})
        entry.pop(author, None)
        if not entry and retweeted_only:
            continue
        ordered = sorted(entry.items(), key=lambda kv: kv[1])
        out.append(Episode(pid, (author,) + tuple(u for u, _ in ordered),
                           (root.t,) + tuple(t for _, (t, _) in ordered)))
    return out


@pytest.mark.parametrize("retweeted_only", [True, False])
def test_build_episodes_matches_reference(rng, retweeted_only):
    """Random forests of reshare chains with tied times, repeat and author reshares."""
    for _ in range(30):
        n_rows = int(rng.integers(1, 120))
        records = []
        for row in range(n_rows):
            t = float(rng.integers(0, n_rows // 3 + 1))  # unordered, with ties
            uid = f"u{int(rng.integers(0, 9))}"
            parent = None if row == 0 or rng.uniform() < 0.2 else int(rng.integers(0, row))
            rid = None
            if parent is not None:
                rid = f"p{parent}"
                t = max(t, records[parent].t)  # never before the reshared post
            records.append(TraceRecord(f"p{row}", t, uid, rid))
        trace = Trace(records)
        assert build_episodes(trace, retweeted_only=retweeted_only) == \
            _reference_episodes(trace, retweeted_only)


def test_naive_rfc3339_is_utc_under_any_host_timezone(monkeypatch):
    import time

    if not hasattr(time, "tzset"):
        pytest.skip("time.tzset is POSIX only")
    text = "pid,t,uid,rid\nP1,2024-01-01T00:00:00,U1,-1\nP2,2024-01-01T00:00:30Z,U2,P1\n"
    seen = []
    for tz in ("UTC", "Asia/Tokyo", "America/New_York"):
        monkeypatch.setenv("TZ", tz)
        time.tzset()
        seen.append([r.t for r in trace_from_string(text).records])
    monkeypatch.undo()
    time.tzset()
    assert seen == [[1704067200.0, 1704067230.0]] * 3
