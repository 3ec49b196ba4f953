import math

import numpy as np
import pytest

from cemnet import baselines as bl
from cemnet import em
from cemnet import trace as trace_mod
from cemnet.constraints import build_constraints, check_feasibility
from cemnet.simulate import SimConfig, simulate
from cemnet.trace import build_episodes, pair_counts, trace_from_string
from conftest import episode_lists, make_episodes, random_episodes


def test_star_on_toy_trace(t1):
    eps = build_episodes(t1)
    g = bl.star_graph(eps, t1.n_users)
    u = t1.uid_index
    assert g.edges == {
        (u["U1"], u["U2"]), (u["U1"], u["U3"]),
        (u["U2"], u["U3"]), (u["U2"], u["U1"]),
    }


def test_star_single_episode():
    eps = make_episodes([((0, 1, 2), (1.0, 2.0, 3.0))])
    assert bl.star_graph(eps, 3).edges == {(0, 1), (0, 2)}
    none = make_episodes([])
    assert bl.star_graph(none, 3).n_edges == bl.chain_graph(none, 3).n_edges == 0


def test_chain_on_toy_trace(t1):
    eps = build_episodes(t1)
    g = bl.chain_graph(eps, t1.n_users)
    u = t1.uid_index
    assert g.edges == {
        (u["U1"], u["U2"]), (u["U2"], u["U3"]), (u["U3"], u["U1"]),
    }


def test_chain_two_user_episode():
    eps = make_episodes([((0, 1), (1.0, 2.0))])
    assert bl.chain_graph(eps, 2).edges == {(0, 1)}


def test_star_chain_always_feasible_and_within_active_pairs(rng):
    for _ in range(10):
        eps = random_episodes(rng)
        table = pair_counts(eps, 8)
        active = {tuple(p) for p in table.pairs.tolist()}
        for builder in (bl.star_graph, bl.chain_graph):
            g = builder(eps, 8)
            assert check_feasibility(g, eps).fraction == 1.0
            assert g.edges <= active
        # the tuple-set loops the slot arrays replaced
        seqs = [users for users, _ in episode_lists(eps)]
        star = {(users[0], j) for users in seqs for j in users[1:]}
        chain = {(a, b) for users in seqs for a, b in zip(users, users[1:])}
        assert bl.star_graph(eps, 8).edges == star
        assert bl.chain_graph(eps, 8).edges == chain


def test_saito_single_parent_in_window():
    # author at t, resharer at t + 1: the one explained trial earns full credit
    eps = make_episodes([((0, 1), (5.0, 6.0))])
    res = bl.saito_em(eps, 2, max_iters=50)
    k = res.table.ids(0, 1)
    assert res.kappa[k] == pytest.approx(1.0)
    assert res.graph.edges == {(0, 1)}


def test_saito_out_of_window_reshare_unexplained():
    # the reshare lags two units; nobody gets credit and no edge appears
    eps = make_episodes([((0, 1), (5.0, 7.0))])
    res = bl.saito_em(eps, 2, max_iters=50)
    assert res.graph.n_edges == 0


def test_saito_symmetric_two_parents():
    eps = make_episodes([((0, 1, 2), (5.0, 5.0, 6.0))] * 3)
    for iters in (1, 2, 5, 30):
        res = bl.saito_em(eps, 3, max_iters=iters, init_kappa=0.5)
        ka = res.kappa[res.table.ids(0, 2)]
        kb = res.kappa[res.table.ids(1, 2)]
        assert ka == kb


def test_saito_failure_opportunities_dilute():
    # one explained reshare, then four episodes where 0 acted and 1 stayed out
    eps = make_episodes([((0, 1), (5.0, 6.0))] + [((0, 2), (5.0, 6.0))] * 4)
    res = bl.saito_em(eps, 3, max_iters=100)
    k01 = res.table.ids(0, 1)
    assert res.kappa[k01] == pytest.approx(1.0 / 5.0, abs=1e-6)
    assert (0, 1) not in res.graph.edges


def test_saito_kappa_stays_probability(rng):
    eps = random_episodes(rng, n_episodes=20)
    for iters in (1, 2, 3, 10):
        res = bl.saito_em(eps, 8, max_iters=iters, seed=4)
        assert np.all(res.kappa >= 0.0) and np.all(res.kappa <= 1.0)


def test_newman_direct_evidence_pair():
    rows = ["pid,t,uid,rid"]
    pid = 0
    for k in range(6):
        rows.append(f"p{pid},{10 * k},A,-1")
        rows.append(f"p{pid + 1},{10 * k + 1},B,p{pid}")
        pid += 2
    t = trace_from_string("\n".join(rows) + "\n")
    eps = build_episodes(t)
    res = bl.newman_em(eps, t.n_users, seed=3)
    a, b = t.uid_index["A"], t.uid_index["B"]
    assert res.q[res.table.ids(a, b)] > 0.5
    assert (a, b) in res.graph.edges


def test_newman_no_direct_evidence_pair():
    # i precedes j often but never as the author: direct counts stay zero
    rows = ["pid,t,uid,rid"]
    pid = 0
    for k in range(8):
        base = 100 * k
        rows.append(f"p{pid},{base},A,-1")
        rows.append(f"p{pid + 1},{base + 1},I,p{pid}")
        rows.append(f"p{pid + 2},{base + 2},J,p{pid + 1}")
        pid += 3
    t = trace_from_string("\n".join(rows) + "\n")
    eps = build_episodes(t)
    res = bl.newman_em(eps, t.n_users, seed=3)
    i, j = t.uid_index["I"], t.uid_index["J"]
    direct = res.direct[res.table.ids(i, j)]
    assert direct == 0.0
    assert res.q[res.table.ids(i, j)] < 0.5
    a = t.uid_index["A"]
    assert (a, i) in res.graph.edges


def test_newman_q_stays_probability(rng):
    eps = random_episodes(rng, n_episodes=25)
    for iters in (1, 2, 3, 10, 40):
        res = bl.newman_em(eps, 8, seed=2, max_iters=iters)
        assert np.all(res.q >= 0.0) and np.all(res.q <= 1.0)
        for value in (res.alpha, res.beta, res.rho):
            assert 0.0 <= value <= 1.0


def test_newman_first_iteration_is_the_shared_posterior(rng):
    eps = random_episodes(rng, n_episodes=25)
    res = bl.newman_em(eps, 8, seed=5, max_iters=1)
    # the starting draws, in newman_em's order
    draw = np.random.default_rng(np.random.SeedSequence(5))
    alpha = em.clamp(0.5 + 0.5 * draw.uniform())
    beta = em.clamp(0.5 * draw.uniform())
    rho = em.clamp(draw.uniform())
    want = em.posterior(res.table.m, res.direct, math.log(rho) - math.log1p(-rho),
                        alpha, beta)
    assert np.array_equal(res.q, want)


@pytest.mark.parametrize("max_iters", [1, 2, 5, 100])
def test_newman_class_posterior_matches_the_pairwise_formula(monkeypatch, max_iters):
    """Bit for bit: Q per (M, direct) class, against the formula pair by pair."""
    out = simulate(SimConfig(seed=3, n_events=20_000))
    eps = build_episodes(out.trace)
    posterior, calls = em.posterior, []

    def record(m, ms, prior_logit, alpha, beta):
        calls.append((len(m), prior_logit, alpha, beta))
        return posterior(m, ms, prior_logit, alpha, beta)

    monkeypatch.setattr(em, "posterior", record)
    res = bl.newman_em(eps, out.trace.n_users, seed=1, max_iters=max_iters)
    n_classes = len(np.unique(np.column_stack([res.table.m, res.direct]), axis=0))
    assert [c[0] for c in calls] == [n_classes] * res.iterations
    assert n_classes < res.table.n_pairs
    want = posterior(res.table.m, res.direct, *calls[-1][1:])
    assert np.array_equal(res.q, want)


def test_newman_on_a_trace_without_pairs():
    eps = make_episodes([([0], [1.0]), ([1], [2.0])])
    res = bl.newman_em(eps, 3, seed=1)
    assert res.table.n_pairs == 0 and len(res.q) == 0
    assert res.converged


def test_baselines_on_synthetic_trace():
    out = simulate(SimConfig(seed=1, n_events=20_000))
    eps = build_episodes(out.trace)
    star = bl.star_graph(eps, out.trace.n_users)
    chain = bl.chain_graph(eps, out.trace.n_users)
    assert check_feasibility(star, eps).fraction == 1.0
    assert check_feasibility(chain, eps).fraction == 1.0
    saito = bl.saito_em(eps, out.trace.n_users, seed=1)
    assert saito.graph.n_edges <= 0.05 * out.truth_graph.n_edges
    newman = bl.newman_em(eps, out.trace.n_users, seed=1)
    assert check_feasibility(newman.graph, eps).fraction < 0.90


def test_slot_blocks_do_not_change_baselines(monkeypatch):
    tr = simulate(SimConfig(n_users=30, n_blocks=2, n_events=4000, seed=2)).trace

    def run():
        eps = build_episodes(tr)  # fresh, so the slot pass runs again at each block size
        saito = bl.saito_em(eps, tr.n_users, seed=1)
        newman = bl.newman_em(eps, tr.n_users, seed=1)
        return saito.kappa, saito.graph.edges, newman.direct, newman.q, newman.graph.edges

    whole = run()
    monkeypatch.setattr(trace_mod, "BLOCK_SLOTS", 5)
    split = run()
    for a, b in zip(whole, split):
        assert (a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b


def _baseline_bytes(saito, newman) -> list[bytes]:
    return [saito.kappa.tobytes(), saito.graph.src.tobytes(), saito.graph.dst.tobytes(),
            newman.direct.tobytes(), newman.q.tobytes(), newman.graph.src.tobytes(),
            newman.graph.dst.tobytes()]


def _prep_bytes(table, system) -> list[bytes]:
    return [table.pairs.tobytes(), table.m.tobytes(), system.row_ptr.tobytes(),
            system.pair_ids.tobytes(), system.targets.tobytes()]


def test_baselines_and_preprocess_agree_from_a_cold_or_warm_slot_pass():
    """The slot pass kept on the episodes gives the bytes of a fresh one,
    whichever of preprocess, Saito and Newman runs first."""
    tr = simulate(SimConfig(n_users=30, n_blocks=2, n_events=4000, seed=3)).trace
    n = tr.n_users

    def cold(run):
        return run(build_episodes(tr))

    saito = lambda eps: bl.saito_em(eps, n, seed=1)
    newman = lambda eps: bl.newman_em(eps, n, seed=1)
    want = _baseline_bytes(cold(saito), cold(newman))
    prep = em.preprocess(tr)  # cold: preprocess builds its own episodes
    want_prep = _prep_bytes(prep.table, prep.constraints)
    assert _baseline_bytes(saito(prep.episodes), newman(prep.episodes)) == want
    eps = build_episodes(tr)
    n_first = newman(eps)
    assert _baseline_bytes(saito(eps), n_first) == want
    eps = build_episodes(tr)
    s_first = saito(eps)
    assert _baseline_bytes(s_first, newman(eps)) == want
    table = pair_counts(eps, n)  # warm, after both baselines
    assert _prep_bytes(table, build_constraints(eps, table)) == want_prep


def test_slot_keys_are_built_once_per_episodes(monkeypatch):
    """preprocess, Saito and Newman on one Episodes share one slot pass."""
    calls = []
    keys = trace_mod.Slots.keys
    monkeypatch.setattr(trace_mod.Slots, "keys",
                        lambda self, n_users: calls.append(n_users) or keys(self, n_users))
    tr = simulate(SimConfig(n_users=30, n_blocks=2, n_events=4000, seed=2)).trace
    prep = em.preprocess(tr)
    bl.saito_em(prep.episodes, tr.n_users, seed=1)
    bl.newman_em(prep.episodes, tr.n_users, seed=1)
    assert calls == [tr.n_users]
    bl.newman_em(build_episodes(tr), tr.n_users, seed=1)
    assert calls == [tr.n_users] * 2


@pytest.mark.parametrize("high", [1, 2, 7, 300, 2**20])
def test_newman_classes_match_the_row_unique(rng, high):
    """One int64 key per pair gives np.unique(axis=0)'s classes and inverse."""
    for size in (0, 1, 50, 2000):
        m = rng.integers(1, high + 1, size=size).astype(np.float64)
        direct = np.minimum(rng.integers(0, high + 1, size=size), m)
        classes, key = np.unique(np.column_stack([m, direct]), axis=0, return_inverse=True)
        m_class, direct_class, got_key = bl._classes(m, direct)
        assert m_class.dtype == direct_class.dtype == np.float64
        assert m_class.tobytes() == classes[:, 0].tobytes()
        assert direct_class.tobytes() == classes[:, 1].tobytes()
        assert got_key.tolist() == key.reshape(-1).tolist()
