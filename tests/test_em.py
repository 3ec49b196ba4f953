import math

import mpmath
import numpy as np
import pytest

from cemnet import em, lp
from cemnet.constraints import check_feasibility
from cemnet.trace import PairTable, build_episodes


def make_state(pairs, m, sigma, *, prior="er", alpha=0.8, beta=0.2,
               rho=0.3, p_in=None, q_out=None, groups=None, n_users=None,
               lam=1.0, beta_fixed=None, prior_spec=()):
    pairs = np.array(pairs, dtype=np.int32).reshape(-1, 2)
    n = n_users or int(pairs.max()) + 1 if len(pairs) else (n_users or 2)
    zeros = np.zeros(len(pairs))
    table = PairTable(n, pairs, np.array(m, dtype=float),
                      np.array(sigma, dtype=float), zeros.copy())
    params = em.ParamSet(prior=prior, alpha=alpha, beta=beta, rho=rho,
                         p_in=p_in, q_out=q_out, lam=lam, beta_fixed=beta_fixed)
    groups = None if groups is None else np.asarray(groups)
    return em.EmState(params, table, groups, n, prior_spec=tuple(prior_spec))


def _per_pair(st, q):
    """A posterior ``q`` in which every pair is a class of its own."""
    return em.Posterior(q, np.arange(len(q)), st.table.m, q, np.empty(0, dtype=np.intp))


def _q_oracle(prior, alpha, beta, m, sigma):
    """Posterior edge probability at 50-digit precision."""
    with mpmath.workdps(50):
        return _q_oracle_ms(prior, alpha, beta, m, mpmath.mpf(m) * mpmath.mpf(sigma))


def _q_oracle_ms(prior, alpha, beta, m, ms):
    """The same posterior for a success count ``ms`` out of ``m`` trials."""
    with mpmath.workdps(50):
        a, b, pr = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(prior)
        ms = mpmath.mpf(ms)
        mns = mpmath.mpf(m) - ms
        num = pr * a**ms * (1 - a)**mns
        den = num + (1 - pr) * b**ms * (1 - b)**mns
        return float(num / den)


def test_update_q_er_inactive_pair_gets_prior():
    st = make_state([(0, 1)], [0.0], [0.7], rho=0.3)
    q = em.update_q_er(st).q
    assert q[0] == pytest.approx(0.3, abs=1e-15)


def test_update_q_er_alpha_equals_beta():
    st = make_state([(0, 1), (1, 0)], [3.0, 7.0], [0.2, 0.9],
                    alpha=0.4, beta=0.4, rho=0.31)
    q = em.update_q_er(st).q
    assert np.allclose(q, 0.31, atol=1e-12)


def test_update_q_er_hand_value():
    st = make_state([(0, 1)], [1.0], [1.0], alpha=0.9, beta=0.1, rho=0.5)
    q = em.update_q_er(st).q
    assert q[0] == pytest.approx(0.9, abs=1e-12)


def test_update_q_matches_high_precision_oracle(rng):
    for _ in range(60):
        alpha = float(rng.uniform(0.5, 1 - 1e-9))
        beta = float(rng.uniform(1e-9, 0.5))
        rho = float(rng.uniform(0.01, 0.99))
        m = float(rng.integers(0, 40))
        sigma = float(rng.uniform())
        st = make_state([(0, 1)], [m], [sigma], alpha=alpha, beta=beta, rho=rho)
        got = em.update_q_er(st).q[0]
        want = _q_oracle(rho, alpha, beta, m, sigma)
        assert got == pytest.approx(want, abs=1e-12)
        # integer evidence ms <= m, as the Newman baseline passes it
        ms = float(rng.integers(0, m + 1))
        got = em.posterior(np.array([m]), np.array([ms]),
                           math.log(rho) - math.log1p(-rho), alpha, beta)[0]
        assert got == pytest.approx(_q_oracle_ms(rho, alpha, beta, m, ms), abs=1e-12)


def test_posterior_matches_the_gathered_reference(rng):
    """Bit for bit, against one branch per sign gathered into its own array."""
    for scale in (1.0, 30.0, 800.0):
        n = 20_000
        table = PairTable(4, np.zeros((n, 2), dtype=np.int32),
                          rng.integers(0, 60, size=n).astype(float),
                          rng.uniform(size=n), np.zeros(n))
        prior_logit = rng.normal(scale=scale, size=n)
        alpha, beta = 0.9, 0.05
        gap = prior_logit + table.m * table.sigma * (math.log(alpha) - math.log(beta)) \
            + (table.m - table.m * table.sigma) * (math.log1p(-alpha) - math.log1p(-beta))
        want = np.empty_like(gap)
        pos = gap >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-gap[pos]))
        ez = np.exp(gap[~pos])
        want[~pos] = ez / (1.0 + ez)
        got = em.posterior(table.m, table.m * table.sigma, prior_logit, alpha, beta)
        assert np.array_equal(got, want)


def _class_test_states(rng, prior):
    """States over tables whose sigma mixes 0, 1 and fractional values.

    Among them: an empty table, one-class tables (every sigma 0, so the
    unheld sigma = 1 class has the larger W, or every sigma 1), and a table
    where every sigma is fractional.
    """
    n_users = 80
    every_pair = np.array([(i, j) for i in range(n_users) for j in range(n_users) if i != j])
    cases = [(0, "mixed"), (1, "mixed"), (300, "zero"), (300, "one"),
             (300, "fractional"), (3000, "integral"), (3000, "mixed")]
    for n, kind in cases:
        pairs = every_pair[np.sort(rng.choice(len(every_pair), size=n, replace=False))]
        m = np.full(n, 4.0) if kind in ("zero", "one") else rng.integers(1, 40, size=n) * 1.0
        sigma = {"zero": np.zeros(n), "one": np.ones(n),
                 "fractional": rng.uniform(1e-9, 1.0, size=n)}.get(kind)
        if sigma is None:
            sigma = rng.integers(0, 2, size=n) * 1.0
            if kind == "mixed":
                hit = rng.uniform(size=n) < 0.1
                sigma[hit] = rng.uniform(size=int(hit.sum()))
        yield make_state(pairs, m, sigma, prior=prior, n_users=n_users,
                         alpha=float(rng.uniform(0.5, 1 - 1e-12)),
                         beta=float(rng.uniform(1e-12, 0.5)),
                         rho=float(rng.uniform(0.001, 0.999)),
                         p_in=float(rng.uniform(0.001, 0.999)),
                         q_out=float(rng.uniform(0.001, 0.999)),
                         groups=rng.integers(0, 3, size=n_users))


def _pairwise_prior_logit(st):
    p = st.params
    if p.prior == "er":
        return math.log(p.rho) - math.log1p(-p.rho)
    g = st.groups
    same = g[st.table.pairs[:, 0]] == g[st.table.pairs[:, 1]]
    return np.where(same, math.log(p.p_in) - math.log1p(-p.p_in),
                    math.log(p.q_out) - math.log1p(-p.q_out))


@pytest.mark.parametrize("prior", ["er", "sbm"])
def test_class_posterior_and_weights_match_the_pairwise_formula(rng, prior):
    """Bit for bit, Q and W by pair class against the formulas pair by pair."""
    for st in _class_test_states(rng, prior):
        t, p = st.table, st.params
        post = em.update_q_er(st) if prior == "er" else em.update_q_sbm(st)
        want_q = em.posterior(t.m, t.m * t.sigma, _pairwise_prior_logit(st), p.alpha, p.beta)
        assert np.array_equal(post.q, want_q)
        assert np.array_equal(post.frac, np.flatnonzero((t.sigma != 0) & (t.sigma != 1)))
        logit_a = math.log(p.alpha) - math.log1p(-p.alpha)
        logit_b = math.log(p.beta) - math.log1p(-p.beta)
        want_w = t.m * (want_q * logit_a + (1.0 - want_q) * logit_b)
        for lam in (0.0, 0.5, 1.0):
            p.lam = lam
            w, coeffs = em.build_w(st, post)
            assert np.array_equal(w, want_w)
            want_c = want_w - lam * want_w.max() if t.n_pairs else want_w
            assert np.array_equal(coeffs, want_c)


def test_update_q_sbm_inactive_pairs():
    st = make_state([(0, 1), (1, 2)], [0.0, 0.0], [0.5, 0.5], prior="sbm",
                    p_in=0.4, q_out=0.05, groups=[0, 0, 1], n_users=3)
    q = em.update_q_sbm(st).q
    assert q[0] == pytest.approx(0.4, abs=1e-15)  # same block
    assert q[1] == pytest.approx(0.05, abs=1e-15)  # across blocks


def test_update_q_sbm_reduces_to_er_when_p_equals_q(rng):
    pairs = [(0, 1), (1, 2), (2, 0)]
    m = rng.integers(1, 10, size=3).astype(float)
    sigma = rng.uniform(size=3)
    st_er = make_state(pairs, m, sigma, rho=0.27, n_users=3)
    st_sbm = make_state(pairs, m, sigma, prior="sbm", p_in=0.27, q_out=0.27,
                        groups=[0, 1, 0], n_users=3)
    assert np.array_equal(em.update_q_er(st_er).q, em.update_q_sbm(st_sbm).q)


def test_update_q_sbm_matches_oracle(rng):
    for _ in range(30):
        alpha = float(rng.uniform(0.5, 0.999))
        beta = float(rng.uniform(0.001, 0.5))
        p_in, q_out = float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.01, 0.5))
        m, sigma = float(rng.integers(1, 25)), float(rng.uniform())
        same = bool(rng.integers(2))
        st = make_state([(0, 1)], [m], [sigma], prior="sbm", alpha=alpha,
                        beta=beta, p_in=p_in, q_out=q_out,
                        groups=[0, 0] if same else [0, 1], n_users=2)
        want = _q_oracle(p_in if same else q_out, alpha, beta, m, sigma)
        assert em.update_q_sbm(st).q[0] == pytest.approx(want, abs=1e-12)


def test_update_alpha_beta_all_q_one_keeps_beta(caplog):
    st = make_state([(0, 1), (1, 0)], [2.0, 4.0], [1.0, 0.5], beta=0.123)
    q = np.ones(2)
    with caplog.at_level("WARNING"):
        alpha, beta = em.update_alpha_beta(st, q)
    assert alpha == pytest.approx((2 * 1.0 + 4 * 0.5) / 6.0)
    assert beta == 0.123
    assert "beta update skipped" in caplog.text


def test_update_alpha_beta_two_pair_example():
    st = make_state([(0, 1), (1, 0)], [2.0, 2.0], [1.0, 0.0])
    q = np.array([1.0, 0.0])
    alpha, beta = em.update_alpha_beta(st, q)
    assert alpha == em.clamp(1.0)  # 1 pre-clamp
    assert beta == em.clamp(0.0)  # 0 pre-clamp


def test_update_alpha_beta_fixed_beta():
    st = make_state([(0, 1)], [3.0], [0.5], beta_fixed=0.5)
    q = np.array([0.7])
    _, beta = em.update_alpha_beta(st, q)
    assert beta == 0.5


def test_update_prior_er_mean_of_constant():
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    st = make_state(pairs, [1.0] * 6, [0.5] * 6, n_users=3,
                    prior_spec=("er", 0.9))
    rho = em.update_prior_er(st, np.full(6, 0.5))
    assert rho == pytest.approx(0.5, abs=1e-15)


def test_update_prior_er_closed_form_inactive():
    st = make_state([(0, 1), (1, 2)], [1.0, 1.0], [0.5, 0.5], n_users=3,
                    prior_spec=("er", 0.0))
    rho = em.update_prior_er(st, np.array([1.0, 1.0]))
    assert rho == pytest.approx(2.0 / 6.0, abs=1e-15)


def test_update_prior_er_fixed_point():
    pairs = [(0, 1), (1, 0)]
    st = make_state(pairs, [1.0, 1.0], [0.5, 0.5], n_users=2,
                    prior_spec=("er", 0.37))
    rho = em.update_prior_er(st, np.array([0.37, 0.37]))
    assert rho == pytest.approx(0.37, abs=1e-15)


def test_update_prior_er_rejects_single_user():
    st = make_state([(0, 1)], [1.0], [0.5], n_users=1)
    with pytest.raises(ValueError):
        em.update_prior_er(st, np.array([0.5]))


def test_update_prior_sbm_single_community(caplog):
    st = make_state([(0, 1), (1, 2)], [1.0, 1.0], [0.5, 0.5], prior="sbm",
                    p_in=0.2, q_out=0.456, groups=[0, 0, 0], n_users=3,
                    prior_spec=("sbm", 0.1, 0.456, np.array([0, 0, 0])))
    with caplog.at_level("WARNING"):
        p, q = em.update_prior_sbm(st, np.array([0.8, 0.6]))
    assert p == pytest.approx((0.8 + 0.6 + 4 * 0.1) / 6.0)
    assert q == 0.456  # retained
    assert "q update skipped" in caplog.text


def test_update_prior_sbm_two_singletons():
    st = make_state([(0, 1)], [1.0], [0.5], prior="sbm", p_in=0.321,
                    q_out=0.9, groups=[0, 1], n_users=2,
                    prior_spec=("sbm", 0.321, 0.5, np.array([0, 1])))
    p, q = em.update_prior_sbm(st, np.array([0.8]))
    assert p == 0.321  # retained, no intra pairs
    assert q == pytest.approx((0.8 + 0.5) / 2.0)


def test_update_prior_sbm_indicator_case():
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0)]
    st = make_state(pairs, [1.0] * 4, [0.5] * 4, prior="sbm", p_in=0.5,
                    q_out=0.5, groups=[0, 0, 1], n_users=3,
                    prior_spec=("sbm", 1.0, 0.0, np.array([0, 0, 1])))
    q_arr = np.array([1.0, 1.0, 0.0, 0.0])
    p, q = em.update_prior_sbm(st, q_arr)
    assert p == em.clamp(1.0)
    assert q == em.clamp(0.0)


def test_build_w_vanishes_at_half():
    st = make_state([(0, 1), (1, 0)], [5.0, 2.0], [0.1, 0.9],
                    alpha=0.5, beta=0.5)
    w, coeffs = em.build_w(st, _per_pair(st, np.array([0.3, 0.8])))
    assert np.allclose(w, 0.0)


def test_build_w_hand_value():
    st = make_state([(0, 1)], [2.0], [1.0], alpha=0.9, beta=0.2)
    w, _ = em.build_w(st, _per_pair(st, np.array([1.0])))
    assert w[0] == pytest.approx(2.0 * math.log(9.0), rel=1e-12)


def test_build_w_lambda_regimes(rng):
    st = make_state([(0, 1), (1, 0), (0, 2)], [3.0, 1.0, 2.0],
                    rng.uniform(size=3), alpha=0.9, beta=0.05, lam=1.0)
    q = _per_pair(st, rng.uniform(size=3))
    w, coeffs = em.build_w(st, q)
    assert np.all(coeffs <= 1e-12)
    st.params.lam = 0.0
    w0, coeffs0 = em.build_w(st, q)
    assert np.array_equal(w0, coeffs0)


def test_q_monotone_in_sigma_and_mass(rng):
    for _ in range(20):
        alpha = float(rng.uniform(0.55, 0.99))
        beta = float(rng.uniform(0.01, 0.45))
        rho = float(rng.uniform(0.05, 0.95))
        m = float(rng.integers(1, 20))
        sig = np.sort(rng.uniform(size=8))
        st = make_state([(0, 1)] * 8, [m] * 8, sig, alpha=alpha, beta=beta,
                        rho=rho, n_users=2)
        q = em.update_q_er(st).q
        assert np.all(np.diff(q) >= -1e-15)
        # and in M at fixed sigma
        ms = np.arange(1.0, 9.0)
        st2 = make_state([(0, 1)] * 8, ms, [0.8] * 8, alpha=alpha, beta=beta,
                         rho=rho, n_users=2)
        q2 = em.update_q_er(st2).q
        assert np.all(np.diff(q2) >= -1e-15)


def test_threshold_graph_strictness():
    st = make_state([(0, 1), (1, 2)], [1.0, 1.0], [0.5, 0.5], n_users=3)
    g = em.threshold_graph(st.table, np.array([0.49, 0.51]), 3)
    assert g.edges == ((1, 2),)
    g2 = em.threshold_graph(st.table, np.array([0.5, 0.5]), 3)
    assert g2.n_edges == 0


def test_threshold_graph_prior_inclusion():
    st = make_state([(0, 1)], [1.0], [0.5], n_users=3)
    g = em.threshold_graph(st.table, np.array([0.2]), 3, ("er", 0.6))
    # the active low-Q pair stays out; all five inactive pairs join at 0.6
    assert (0, 1) not in g.edges
    assert g.n_edges == 5
    g2 = em.threshold_graph(st.table, np.array([0.2]), 3, ("er", 0.4))
    assert g2.n_edges == 0


def _threshold_reference(table, q, n, prior_spec):
    """Per-ordered-pair definition of threshold_graph: edges and scores."""
    active = {tuple(p): k for k, p in enumerate(table.pairs.tolist())}
    out = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (i, j) in active:
                val = float(q[active[(i, j)]])
            elif prior_spec is None:
                continue
            elif prior_spec[0] == "er":
                val = prior_spec[1]
            else:
                _, p_in, q_out, groups = prior_spec
                val = p_in if groups[i] == groups[j] else q_out
            if val > 0.5:
                out[(i, j)] = val
    return out


def test_threshold_graph_sbm_prior_hot_mixed_groups():
    # groups {0, 1} and {2, 3}; hot intra prior, cold cross prior
    st = make_state([(0, 1), (2, 0), (3, 1)], [1.0] * 3, [0.5] * 3, n_users=4)
    spec = ("sbm", 0.7, 0.2, np.array([0, 0, 1, 1]))
    g = em.threshold_graph(st.table, np.array([0.1, 0.9, 0.3]), 4, spec)
    # (0, 1) is active with a low posterior, so the hot prior must not add it
    assert g.edges == ((1, 0), (2, 0), (2, 3), (3, 2))
    assert all(i != j for i, j in g.edges)
    scores = dict(zip(g.edges, g.score.tolist()))
    assert scores[1, 0] == 0.7 and scores[2, 3] == 0.7
    assert scores[2, 0] == 0.9


def test_threshold_graph_cold_prior_adds_nothing():
    st = make_state([(0, 1)], [1.0], [0.5], n_users=3)
    spec = ("sbm", 0.5, 0.3, np.array([0, 0, 0]))
    g = em.threshold_graph(st.table, np.array([0.8]), 3, spec)
    assert g.edges == ((0, 1),)


def test_threshold_graph_matches_pairwise_reference(rng):
    for trial in range(60):
        n = int(rng.integers(2, 13))
        all_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        k = int(rng.integers(0, len(all_pairs) + 1))
        pick = rng.permutation(len(all_pairs))[:k]
        pairs = [all_pairs[x] for x in sorted(pick)]
        st = make_state(pairs, [1.0] * k, [0.5] * k, n_users=n)
        q = rng.uniform(size=k)
        kind = trial % 3
        if kind == 0:
            spec = None
        elif kind == 1:
            spec = ("er", float(rng.uniform(0.3, 0.7)))
        else:
            spec = ("sbm", float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 0.7)),
                    rng.integers(0, 3, size=n))
        g = em.threshold_graph(st.table, q, n, spec)
        want = _threshold_reference(st.table, q, n, spec)
        assert g.edges == tuple(sorted(want))
        assert dict(zip(g.edges, g.score.tolist())) == want


def test_score_matrix_layout():
    st = make_state([(0, 1)], [1.0], [0.5], n_users=3)
    s = em.score_matrix(st.table, np.array([0.9]), 3, ("er", 0.25))
    assert s[0, 1] == 0.9
    assert s[1, 0] == 0.25
    assert np.all(np.diag(s) == 0.0)


def _dense_inactive_delta(n, pairs, g0, g1, pq0, pq1):
    active = {tuple(p) for p in pairs.tolist()}
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or (i, j) in active:
                continue
            q_prev = pq0[0] if g0[i] == g0[j] else pq0[1]
            q_curr = pq1[0] if g1[i] == g1[j] else pq1[1]
            acc += (q_curr - q_prev) ** 2
    return acc


def test_inactive_delta_norm_matches_bruteforce(rng):
    for _ in range(25):
        n = 9
        n_active = int(rng.integers(0, 20))
        choices = [(i, j) for i in range(n) for j in range(n) if i != j]
        idx = rng.choice(len(choices), size=n_active, replace=False)
        pairs = np.array([choices[k] for k in idx], dtype=np.int32).reshape(-1, 2)
        g0 = rng.integers(0, 3, size=n)
        g1 = rng.integers(0, 4, size=n)
        pq0 = (float(rng.uniform()), float(rng.uniform()))
        pq1 = (float(rng.uniform()), float(rng.uniform()))
        got = em._delta_q_sq_inactive(n, pairs, ("sbm", *pq0, g0), ("sbm", *pq1, g1))
        want = _dense_inactive_delta(n, pairs, g0, g1, pq0, pq1)
        assert got == pytest.approx(want, abs=1e-10)
        # the flat-prior case reduces to the same bookkeeping
        got_er = em._delta_q_sq_inactive(n, pairs, ("er", pq0[0]), ("er", pq1[0]))
        want_er = _dense_inactive_delta(
            n, pairs, np.zeros(n, int), np.zeros(n, int),
            (pq0[0], 0.0), (pq1[0], 0.0),
        )
        assert got_er == pytest.approx(want_er, abs=1e-10)


def test_run_cem_on_toy_trace(t1):
    state, graph = em.run_cem(t1, "er", 1.0, seed=3)
    u = t1.uid_index
    assert (u["U1"], u["U2"]) in graph.edges
    assert (u["U2"], u["U3"]) in graph.edges
    eps = build_episodes(t1)
    assert check_feasibility(graph, eps).fraction == 1.0
    assert state.converged


def test_run_cem_determinism(t1):
    r1 = em.run_cem(em.preprocess(t1), "sbm", 1.0, seed=9)
    r2 = em.run_cem(em.preprocess(t1), "sbm", 1.0, seed=9)
    assert r1[1].edges == r2[1].edges
    assert r1[0].params.alpha == r2[0].params.alpha
    assert r1[0].delta_q == r2[0].delta_q


def test_run_cem_iteration_cap_flag(t1):
    state, _ = em.run_cem(t1, "er", 1.0, seed=3, max_iters=2)
    assert state.iteration == 2
    assert not state.converged


def test_sbm_reduces_to_er_bitwise(t1):
    prep_a = em.preprocess(t1)
    prep_b = em.preprocess(t1)
    st_er, g_er = em.run_cem(prep_a, "er", 1.0, seed=5)
    st_sbm, g_sbm = em.run_cem(
        prep_b, "sbm", 1.0, seed=5, fixed_groups=np.zeros(t1.n_users, dtype=int)
    )
    assert np.array_equal(prep_a.table.q, prep_b.table.q)
    assert np.array_equal(prep_a.table.sigma, prep_b.table.sigma)
    assert st_er.params.alpha == st_sbm.params.alpha
    assert st_er.params.beta == st_sbm.params.beta
    assert st_er.params.rho == st_sbm.params.p_in
    assert g_er.edges == g_sbm.edges


def test_louvain_runs_only_on_a_changed_graph(monkeypatch, caplog):
    from cemnet.simulate import SimConfig, simulate

    small = simulate(SimConfig(n_users=40, n_blocks=3, n_events=6000, seed=5)).trace
    prep = em.preprocess(small)
    graphs, calls = [], []
    threshold_graph, louvain_graph = em.threshold_graph, em.louvain_graph

    def record_threshold(*args):
        graphs.append(threshold_graph(*args))
        return graphs[-1]

    def record_louvain(graph, seed):
        calls.append((graph, seed))
        return louvain_graph(graph, seed=seed)

    monkeypatch.setattr(em, "threshold_graph", record_threshold)
    monkeypatch.setattr(em, "louvain_graph", record_louvain)
    with caplog.at_level("DEBUG", logger="cemnet.em"):
        state, _ = em.run_cem(prep, "sbm", 1.0, seed=7)
    interim = graphs[:-1]  # the last call thresholds the final graph
    assert len(interim) == state.iteration
    changed = [g for k, g in enumerate(interim)
               if k == 0 or not (np.array_equal(g.src, interim[k - 1].src)
                                 and np.array_equal(g.dst, interim[k - 1].dst))]
    assert [g for g, _ in calls] == changed
    assert len(calls) < state.iteration
    # the kept labels are what Louvain returns on the last graph
    assert np.array_equal(state.groups, louvain_graph(interim[-1], seed=calls[0][1]).labels)
    lines = [r.getMessage() for r in caplog.records if "louvain" in r.getMessage()]
    assert len(lines) == state.iteration
    assert sum("louvain ran" in m for m in lines) == len(calls)
    assert lines[-1].endswith(f"{int(state.groups.max()) + 1} communities")

    graphs.clear()
    calls.clear()
    em.run_cem(prep, "sbm", 1.0, seed=7, fixed_groups=np.zeros(prep.n_users, dtype=int))
    assert calls == []


def test_louvain_reruns_when_either_edge_array_changes(t1, monkeypatch):
    from cemnet.graph import InferredGraph

    n = t1.n_users
    a, b, c = (InferredGraph(n, [e]) for e in [(0, 1), (0, 2), (1, 2)])
    script = [a, a, b, c, c]  # b keeps a's src, c keeps b's dst
    threshold_graph, louvain_graph = em.threshold_graph, em.louvain_graph
    calls = []

    def scripted_threshold(*args):
        return script.pop(0) if script else threshold_graph(*args)

    def record_louvain(graph, seed):
        calls.append(graph)
        return louvain_graph(graph, seed=seed)

    monkeypatch.setattr(em, "threshold_graph", scripted_threshold)
    monkeypatch.setattr(em, "louvain_graph", record_louvain)
    state, _ = em.run_cem(t1, "sbm", 1.0, seed=3, max_iters=5, epsilon=0.0)
    assert state.iteration == 5 and not script
    assert calls == [a, b, c]


def test_prior_spec_holds_the_labels_of_the_last_e_step(t1, monkeypatch):
    """The final scores use the labels behind the final Q, not the labels
    Louvain returned after it."""
    from cemnet.community import CommunityResult
    from cemnet.graph import InferredGraph

    n = t1.n_users
    script = [InferredGraph(n, [e]) for e in [(0, 1), (0, 2), (1, 2)]]
    threshold_graph = em.threshold_graph
    labels = []

    def scripted_threshold(*args):
        return script.pop(0) if script else threshold_graph(*args)

    def fresh_labels(graph, seed):
        labels.append(np.full(n, len(labels), dtype=np.int64))
        return CommunityResult(labels[-1], 0.0, ())

    update_prior_sbm = em.update_prior_sbm
    folded = []

    def recorded_update(state, q):
        folded.append(state.prior_spec[1:3])
        return update_prior_sbm(state, q)

    monkeypatch.setattr(em, "threshold_graph", scripted_threshold)
    monkeypatch.setattr(em, "louvain_graph", fresh_labels)
    monkeypatch.setattr(em, "update_prior_sbm", recorded_update)
    state, _ = em.run_cem(t1, "sbm", 1.0, seed=3, max_iters=3, epsilon=0.0)
    assert state.iteration == 3 and len(labels) == 3 and not script
    assert np.array_equal(state.groups, labels[2])
    assert np.array_equal(state.prior_spec[3], labels[1])
    # the last M-step folded in the values of the prior behind the final Q
    assert state.prior_spec[1:3] == folded[-1]


def test_run_cem_rejects_unknown_prior(t1):
    with pytest.raises(ValueError):
        em.run_cem(t1, "powerlaw", 1.0)
    with pytest.raises(ValueError):
        em.run_cem(t1, "er", 1.0, max_iters=0)


def test_run_cem_raises_when_the_lp_degrades(t1, monkeypatch):
    monkeypatch.setattr(lp, "_dual_simplex", lambda R, c: (None, 0, None))
    with pytest.raises(RuntimeError, match="iteration-limit"):
        em.run_cem(t1, "er", 1.0, seed=0)


def test_run_cem_raises_when_no_basis_is_certified(t1, monkeypatch):
    monkeypatch.setattr(lp, "_certified", lambda bases, c, reduced: np.zeros(len(bases.comp), bool))
    with pytest.raises(RuntimeError, match="iteration-limit"):
        em.run_cem(t1, "er", 1.0, seed=0)


SIM40 = dict(n_users=40, n_blocks=3, n_events=6000, seed=5)
# one input of the benchmark's sweep workload
SWEEP500 = dict(n_users=500, block_sizes=[72, 72, 71, 71, 71, 71, 72],
                p_intra=0.012, q_inter=0.0014, n_events=120_000,
                post_rate=(0.0035, 0.0035), repost_rate=(0.09, 0.09), seed=9201)


# (pivots, components solved, of those reused) per LP call; a flipped reuse
# decision changes them even where the x it returns does not change
SIM40_CALLS = [(9, 8, 0), (5, 8, 4)] + [(0, 8, 8)] * 12
SWEEP500_CALLS = ([(68, 34, 0), (21, 31, 21)] + [(0, 31, 31)] * 5
                  + [(5, 31, 29), (2, 31, 29)] + [(0, 31, 31)] * 16)


@pytest.mark.parametrize("config,lam,calls", [(SIM40, 1.0, SIM40_CALLS),
                                              (SWEEP500, 0.25, SWEEP500_CALLS)],
                         ids=["sim40", "sweep500"])
def test_warm_lp_calls_match_cold_calls(monkeypatch, config, lam, calls):
    from cemnet.simulate import SimConfig, simulate

    prep = em.preprocess(simulate(SimConfig(**config)).trace)
    solve, sols = lp.solve_reduced, []

    def warm_and_cold(reduced, objective, **kw):
        sols.append(solve(reduced, objective, **kw))
        cold = solve(reduced, objective)
        assert sols[-1].status == cold.status == lp.STATUS_OPTIMAL
        assert np.array_equal(sols[-1].x, cold.x)
        return sols[-1]

    monkeypatch.setattr(lp, "solve_reduced", warm_and_cold)
    state, _ = em.run_cem(prep, "er", lam, seed=7)
    assert len(sols) == state.iteration > 2
    assert sols[0].n_reused == 0
    assert sum(s.n_reused for s in sols) > sum(s.n_solved for s in sols) // 2
    assert [(s.n_pivots, s.n_solved, s.n_reused) for s in sols] == calls


def test_lp_reuse_is_logged_per_iteration(monkeypatch, caplog):
    from cemnet.simulate import SimConfig, simulate

    prep = em.preprocess(simulate(SimConfig(**SIM40)).trace)
    solve, sols = lp.solve_reduced, []

    def record(*args, **kw):
        sols.append(solve(*args, **kw))
        return sols[-1]

    monkeypatch.setattr(lp, "solve_reduced", record)
    with caplog.at_level("DEBUG", logger="cemnet.em"):
        state, _ = em.run_cem(prep, "er", 1.0, seed=7)
    lines = [r.getMessage() for r in caplog.records if ": lp " in r.getMessage()]
    # each E-step reads the previous LP's sigma; the first reads a random one
    n_frac = [prep.table.n_pairs] + [int(np.sum((s.x != 0) & (s.x != 1)))
                                     for s in sols[:-1]]
    n_classes = 2 * len(np.unique(prep.table.m))
    assert lines == [
        f"iteration {it}: lp optimal, {s.n_pivots} pivots, "
        f"{s.n_reused}/{s.n_solved} components reused, "
        f"posterior on {n_classes} pair classes and {f} fractional-sigma pairs"
        for it, (s, f) in enumerate(zip(sols, n_frac), start=1)
    ]
    assert len(lines) == state.iteration and any(s.n_reused for s in sols)


def test_run_cem_trace_without_reposts():
    from cemnet.trace import trace_from_string

    t = trace_from_string("pid,t,uid,rid\nP1,10,U1,-1\nP2,20,U2,-1\n")
    state, graph = em.run_cem(t, "er", 1.0, seed=1)
    assert state.converged
    # no evidence at all: the output is purely prior-driven
    assert graph.n_edges in (0, 2)


def test_lambda_penalization_direction_across_seeds():
    from cemnet.simulate import SimConfig, simulate

    out = simulate(SimConfig(seed=2, n_events=40_000))
    prep = em.preprocess(out.trace)
    for seed in (1, 2, 3):
        _, g1 = em.run_cem(prep, "er", 1.0, seed=seed)
        _, g0 = em.run_cem(prep, "er", 0.0, seed=seed)
        assert g0.n_edges >= 5 * g1.n_edges
