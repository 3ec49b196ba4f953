from collections import Counter

import numpy as np
import pytest

from cemnet import trace as trace_mod
from cemnet.constraints import build_constraints, check_feasibility
from cemnet.graph import InferredGraph
from cemnet.trace import (PairTable, build_episodes, key_dtype, pair_counts,
                          predecessor_slots, trace_from_string)
from conftest import T1_CSV, episode_lists, make_episodes, random_episodes


def _rows(system):
    """``(episode_id, target, pair_ids)`` per covering row."""
    ptr = system.row_ptr.tolist()
    return [(int(e), int(j), tuple(system.pair_ids[a:b].tolist()))
            for e, j, a, b in zip(system.episode_ids, system.targets, ptr, ptr[1:])]


def _named_rows(trace, episodes, system, table):
    pairs = [tuple(p) for p in table.pairs.tolist()]
    out = []
    for e, j, row in _rows(system):
        members = {(trace.users[pairs[k][0]], trace.users[pairs[k][1]]) for k in row}
        out.append((e, trace.users[j], members))
    return out


def test_constraints_t1(t1):
    eps = build_episodes(t1)
    table = pair_counts(eps, t1.n_users)
    system = build_constraints(eps, table)
    rows = _named_rows(t1, eps, system, table)
    assert rows == [
        (0, "U2", {("U1", "U2")}),
        (0, "U3", {("U1", "U3"), ("U2", "U3")}),
        (1, "U3", {("U2", "U3")}),
        (1, "U1", {("U2", "U1"), ("U3", "U1")}),
    ]


def test_constraints_two_user_episode():
    eps = make_episodes([((0, 1), (1.0, 2.0))])
    table = pair_counts(eps, 2)
    system = build_constraints(eps, table)
    assert len(system) == 1
    assert _rows(system)[0][2] == (table.ids(0, 1),)


def test_constraints_sizes_by_position():
    k = 6
    eps = make_episodes([(range(k), [float(i) for i in range(k)])])
    table = pair_counts(eps, k)
    system = build_constraints(eps, table)
    assert len(system) == k - 1
    assert np.diff(system.row_ptr).tolist() == list(range(1, k))


def test_constraint_count_identity(rng):
    eps = random_episodes(rng)
    table = pair_counts(eps, 8)
    system = build_constraints(eps, table)
    assert len(system) == sum(len(users) - 1 for users, _ in episode_lists(eps))


def test_feasibility_figure_graphs(t1):
    eps = build_episodes(t1)
    u = t1.uid_index
    g_a = InferredGraph(3, [(u["U2"], u["U3"]), (u["U2"], u["U1"])])
    rep = check_feasibility(g_a, eps)
    assert rep.fraction == 0.5
    assert rep.per_episode == (False, True)

    g_c = InferredGraph(
        3, [(u["U1"], u["U2"]), (u["U2"], u["U3"]), (u["U2"], u["U1"])]
    )
    assert check_feasibility(g_c, eps).fraction == 1.0


def test_feasibility_complete_graph(rng):
    eps = random_episodes(rng)
    n = 8
    complete = InferredGraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])
    assert check_feasibility(complete, eps).fraction == 1.0


def _feasible_bfs_oracle(graph, users):
    """Reachability from the author over time-respecting edges only."""
    users = list(users)
    pos = {u: k for k, u in enumerate(users)}
    reached = {users[0]}
    frontier = [users[0]]
    while frontier:
        nxt = []
        for i in frontier:
            for k in range(pos[i] + 1, len(users)):
                j = users[k]
                if j not in reached and (i, j) in graph.edges:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(reached) == len(users)


def test_local_criterion_equals_path_oracle(rng):
    n = 8
    for _ in range(100):
        eps = random_episodes(rng, n_users=n, n_episodes=4)
        density = rng.uniform(0.05, 0.5)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.uniform() < density
        ]
        graph = InferredGraph(n, edges)
        rep = check_feasibility(graph, eps)
        oracle = [_feasible_bfs_oracle(graph, users) for users, _ in episode_lists(eps)]
        assert list(rep.per_episode) == oracle


def test_feasibility_monotone_under_edge_addition(rng):
    n = 8
    eps = random_episodes(rng, n_users=n, n_episodes=10)
    edges = set()
    prev = check_feasibility(InferredGraph(n, edges), eps).fraction
    candidates = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(candidates)
    for e in candidates[:30]:
        edges.add(e)
        frac = check_feasibility(InferredGraph(n, edges), eps).fraction
        assert frac >= prev
        prev = frac


def test_binary_sigma_cover_is_fully_feasible(rng):
    from cemnet import lp

    for _ in range(20):
        eps = random_episodes(rng)
        table = pair_counts(eps, 8)
        system = build_constraints(eps, table)
        R = np.zeros((len(system), table.n_pairs), dtype=bool)
        R[np.repeat(np.arange(len(system)), np.diff(system.row_ptr)), system.pair_ids] = True
        x = lp._greedy_local(R, rng.uniform(-1, 1, size=table.n_pairs))
        edges = [tuple(table.pairs[k]) for k in np.flatnonzero(x > 0.5)]
        graph = InferredGraph(8, edges)
        assert check_feasibility(graph, eps).fraction == 1.0


def test_report_json(t1):
    eps = build_episodes(t1)
    rep = check_feasibility(InferredGraph(3, []), eps)
    assert rep.to_json() == {"fraction": 0.0, "n_feasible": 0, "n_episodes": 2}


def test_empty_episode_list_is_vacuously_feasible():
    rep = check_feasibility(InferredGraph(3, []), make_episodes([]))
    assert rep.fraction == 1.0



def _reference_counts_and_rows(episodes):
    """Tuple/Counter pair counts and covering rows, pair by pair."""
    seqs = [users for users, _ in episode_lists(episodes)]
    counts = Counter()
    for users in seqs:
        for a in range(len(users)):
            for b in range(a + 1, len(users)):
                counts[(users[a], users[b])] += 1
    ordered = sorted(counts)
    index = {ij: k for k, ij in enumerate(ordered)}
    rows = [(e, users[b], tuple(index[(users[a], users[b])] for a in range(b)))
            for e, users in enumerate(seqs) for b in range(1, len(users))]
    return ordered, [counts[ij] for ij in ordered], rows


def _mixed_episodes(rng, n_users, n_episodes):
    """Random episodes of length 1 to 7, so length-1 and length-2 ones occur.

    Users come from a pool of 10 that includes the largest uid, so pairs
    repeat across episodes and the largest keys occur.
    """
    pool = np.unique(np.append(rng.choice(n_users, size=9, replace=False), n_users - 1))
    out = []
    for e in range(n_episodes):
        k = int(rng.integers(1, 8))
        users = rng.choice(pool, size=k, replace=False)
        out.append(([int(u) for u in users], [float(x) for x in range(k)]))
    return make_episodes(out)


@pytest.mark.parametrize("block_slots", [None, 4])
@pytest.mark.parametrize("n_users", [10, 40, 50_000])
def test_pair_counts_and_rows_match_reference(rng, monkeypatch, n_users, block_slots):
    """50_000 users push the pair keys past int32 (the int64 branch); four
    slots per block split rows across blocks and leave long rows alone.
    10 users count over all keys wherever the slots reach the 100 keys,
    and the larger pools count by np.unique."""
    if block_slots is not None:
        monkeypatch.setattr(trace_mod, "BLOCK_SLOTS", block_slots)
    n_dense = 0
    for _ in range(10):
        eps = _mixed_episodes(rng, n_users, int(rng.integers(0, 30)))
        pairs, m, rows = _reference_counts_and_rows(eps)
        table = pair_counts(eps, n_users)
        assert len(table.slot_ids) == sum(len(ids) for _, _, ids in rows)
        dense = n_users * n_users <= len(table.slot_ids)
        n_dense += dense
        assert table.pairs.dtype == np.int32 and table.pairs.shape == (len(pairs), 2)
        assert [tuple(p) for p in table.pairs.tolist()] == pairs
        assert table.m.tolist() == m
        system = build_constraints(eps, table)
        assert len(system) == len(rows)
        assert _rows(system) == rows
        if pairs:
            src, dst = np.array(pairs).T
            assert table.ids(src, dst).tolist() == list(range(len(pairs)))
            assert table.ids(dst[:1] + n_users, src[:1]).tolist() == [-1]
    assert n_dense > 0 if n_users == 10 else n_dense == 0


def _slot_src_dst(eps):
    """``(src, dst)`` of every predecessor slot, rows back to back."""
    slots = predecessor_slots(eps)
    return (slots.users[slots.gather()].astype(np.int64),
            np.repeat(slots.targets, slots.row_len))


@pytest.mark.parametrize("block_slots", [None, 3])
@pytest.mark.parametrize("n_users", [10, 50_000])
def test_slot_ids_are_the_table_ids_of_every_slot(rng, monkeypatch, n_users, block_slots):
    """10 users count over all keys, 50,000 by np.unique (int64 keys);
    three slots per block split the block-by-block write into many blocks."""
    if block_slots is not None:
        monkeypatch.setattr(trace_mod, "BLOCK_SLOTS", block_slots)
    for _ in range(10):
        eps = _mixed_episodes(rng, n_users, int(rng.integers(30, 40)))
        table = pair_counts(eps, n_users)
        assert (n_users ** 2 <= len(table.slot_ids)) == (n_users == 10)
        src, dst = _slot_src_dst(eps)
        assert table.slot_ids.dtype == key_dtype(n_users)
        assert table.slot_ids.tolist() == table.ids(src, dst).tolist()
        system = build_constraints(eps, table)
        assert system.pair_ids is table.slot_ids


@pytest.mark.parametrize("dense", [False, True])
def test_pair_tables_share_read_only_arrays_but_not_sigma_or_q(t1, dense):
    """t1 has 6 slots over 9 keys (counted by np.unique); four copies of it have 24."""
    header, body = T1_CSV.split("\n", 1)
    copies = "".join(body.replace("P", f"P{k}_") for k in range(4))
    tr = trace_from_string(f"{header}\n{copies}") if dense else t1
    eps = build_episodes(tr)
    for a in (eps.ptr, eps.users, eps.times):
        assert not a.flags.writeable
    a, b = pair_counts(eps, tr.n_users), pair_counts(eps, tr.n_users)
    assert a is not b and (tr.n_users ** 2 <= len(a.slot_ids)) == dense
    for name in ("pairs", "m", "slot_ids"):
        shared = getattr(a, name)
        assert shared is getattr(b, name) and not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0
    assert not np.shares_memory(a.sigma, b.sigma) and not np.shares_memory(a.q, b.q)
    a.sigma[:], a.q[:] = 1.0, 1.0
    assert not b.sigma.any() and not b.q.any()
    # another n_users is a pass of its own, with keys over its own user range
    wide = pair_counts(eps, 2 * tr.n_users)
    assert wide.pairs.tolist() == a.pairs.tolist() and wide.slot_ids is not a.slot_ids
    assert wide.slot_ids.tolist() == a.slot_ids.tolist()


def test_constraints_need_a_table_from_pair_counts(t1):
    eps = build_episodes(t1)
    table = pair_counts(eps, t1.n_users)
    with pytest.raises(ValueError, match="pair_counts"):
        build_constraints(eps, PairTable(table.n_users, table.pairs, table.m))
