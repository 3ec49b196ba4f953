"""End-to-end acceptance gates for the full inference pipeline.

Five default synthetic traces are regenerated, truncated to at most their
first 50,000 rows, and pushed through both priors at lambda in {0, 1} under
one pinned inference seed.  Each criterion prints a single PASS line with
the measured values once its assertions hold.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from cemnet import baselines as bl
from cemnet import community as cm
from cemnet import em, lp
from cemnet.cli import main as cli_main
from cemnet.constraints import check_feasibility
from cemnet.metrics import classification_scores
from cemnet.simulate import SimConfig, generate_events, generate_sbm_graph, \
    rewire_edges, run_diffusion, simulate
from cemnet.trace import PairTable

SIM_SEEDS = (1, 2, 3, 4, 5)
EM_SEED = 7  # pinned inference seed for the whole gate
CANON = 1  # canonical trace for the single-trace criteria
HEAD_ROWS = 50_000


@dataclass
class RunResult:
    edges: int
    feasibility: float
    precision: float
    recall: float
    auc: float
    alpha: float
    beta: float
    converged: bool
    runtime: float
    f1_community: float | None = None
    p_hat: float | None = None
    q_hat: float | None = None


@pytest.fixture(scope="session")
def matrix():
    """CEM runs and baselines for every simulation seed."""
    runs: dict[tuple, RunResult] = {}
    info: dict[int, dict] = {}
    for sim_seed in SIM_SEEDS:
        out = simulate(SimConfig(seed=sim_seed))
        trace = out.trace.head(HEAD_ROWS)
        prep = em.preprocess(trace)
        truth = out.truth_graph
        lab_truth = cm.louvain_graph(truth, seed=EM_SEED).labels
        for prior, lam in itertools.product(("er", "sbm"), (1.0, 0.0)):
            started = time.time()
            state, graph = em.run_cem(prep, prior, lam, seed=EM_SEED)
            elapsed = time.time() - started
            feas = check_feasibility(graph, prep.episodes).fraction
            scores = em.score_matrix(
                prep.table, prep.table.q, trace.n_users, state.prior_spec
            )
            rep = classification_scores(graph, truth, scores=scores)
            res = RunResult(
                graph.n_edges, feas, rep.precision, rep.recall, rep.auc,
                state.params.alpha, state.params.beta, state.converged, elapsed,
            )
            if prior == "sbm" and lam == 1.0:
                lab_pred = cm.louvain_graph(graph, seed=EM_SEED).labels
                res.f1_community = cm.pairwise_f1(lab_pred, lab_truth)
                res.p_hat, res.q_hat = cm.estimate_block_densities(graph, lab_pred)
            runs[(sim_seed, prior, lam)] = res

        star = bl.star_graph(prep.episodes, trace.n_users)
        chain = bl.chain_graph(prep.episodes, trace.n_users)
        saito = bl.saito_em(prep.episodes, trace.n_users, seed=EM_SEED)
        newman = bl.newman_em(prep.episodes, trace.n_users, seed=EM_SEED)
        info[sim_seed] = {
            "truth_edges": truth.n_edges,
            "n_users": trace.n_users,
            "star_feas": check_feasibility(star, prep.episodes).fraction,
            "chain_feas": check_feasibility(chain, prep.episodes).fraction,
            "saito_edges": saito.graph.n_edges,
            "newman_feas": check_feasibility(newman.graph, prep.episodes).fraction,
        }
    return runs, info


def test_c01_feasibility_guarantee(matrix):
    runs, _ = matrix
    for (sim_seed, prior, lam), res in runs.items():
        assert res.feasibility == 1.0, (sim_seed, prior, lam, res.feasibility)
        assert res.runtime < 120.0, (sim_seed, prior, lam, res.runtime)
    worst = max(res.runtime for res in runs.values())
    print(f"\nACCEPTANCE C1 feasibility-guarantee: PASS "
          f"(20/20 runs at 1.0, slowest run {worst:.1f}s)")


def test_c02_prediction_quality(matrix):
    runs, _ = matrix
    sbm = runs[(CANON, "sbm", 1.0)]
    assert sbm.precision >= 0.75
    assert sbm.recall >= 0.85
    assert sbm.auc >= 0.92
    er0 = runs[(CANON, "er", 0.0)]
    assert er0.recall >= 0.90
    assert er0.precision <= 0.10
    print(f"\nACCEPTANCE C2 prediction-quality: PASS "
          f"(sbm λ=1 P={sbm.precision:.3f} R={sbm.recall:.3f} AUC={sbm.auc:.3f}; "
          f"er λ=0 P={er0.precision:.3f} R={er0.recall:.3f})")


def test_c03_converged_parameters(matrix):
    runs, _ = matrix
    worst_a = worst_b = 0.0
    for prior, lam in itertools.product(("er", "sbm"), (0.0, 1.0)):
        res = runs[(CANON, prior, lam)]
        assert 1.0 - res.alpha < 1e-6, (prior, lam, res.alpha)
        assert res.beta < 1e-6, (prior, lam, res.beta)
        worst_a = max(worst_a, 1.0 - res.alpha)
        worst_b = max(worst_b, res.beta)
    print(f"\nACCEPTANCE C3 converged-parameters: PASS "
          f"(max 1-α={worst_a:.2e}, max β={worst_b:.2e})")


def test_c04_edge_count_regime(matrix):
    runs, _ = matrix
    sbm1 = runs[(CANON, "sbm", 1.0)].edges
    assert 120 <= sbm1 <= 260
    er0 = runs[(CANON, "er", 0.0)].edges
    sbm0 = runs[(CANON, "sbm", 0.0)].edges
    assert er0 > 4000
    assert sbm0 > 4000
    print(f"\nACCEPTANCE C4 edge-count-regime: PASS "
          f"(sbm λ=1: {sbm1} edges; λ=0: er {er0} / sbm {sbm0} edges)")


def test_c05_community_recovery(matrix):
    runs, _ = matrix
    res = runs[(CANON, "sbm", 1.0)]
    assert res.f1_community >= 0.85
    assert 0.06 / 2 <= res.p_hat <= 0.06 * 2
    assert 0.007 / 3 <= res.q_hat <= 0.007 * 3
    print(f"\nACCEPTANCE C5 community-recovery: PASS "
          f"(pairwise F1={res.f1_community:.3f}, p̂={res.p_hat:.4f}, "
          f"q̂={res.q_hat:.5f})")


def test_c06_baselines(matrix):
    _, info = matrix
    for sim_seed, row in info.items():
        assert row["star_feas"] == 1.0, sim_seed
        assert row["chain_feas"] == 1.0, sim_seed
        assert row["saito_edges"] < 0.05 * row["truth_edges"], sim_seed
        assert row["newman_feas"] < 0.90, sim_seed
    canon = info[CANON]
    print(f"\nACCEPTANCE C6 baselines: PASS "
          f"(star/chain 1.0 on all 5 traces; saito {canon['saito_edges']} edges "
          f"vs truth {canon['truth_edges']}; newman feasibility "
          f"{canon['newman_feas']:.2f})")


def test_c07_fixed_beta_feasibility_control():
    cfg = SimConfig(seed=CANON)
    ss = np.random.SeedSequence(cfg.seed)
    s_graph, s_events, s_diff = ss.spawn(3)
    graph, labels = generate_sbm_graph(cfg, np.random.default_rng(s_graph))
    corrupted = rewire_edges(graph, 0.5, seed=99)
    events = generate_events(cfg, np.random.default_rng(s_events))
    out = run_diffusion(corrupted, labels, events, cfg, np.random.default_rng(s_diff))
    # short prefix: sparse pair evidence, the regime the control targets
    prep = em.preprocess(out.trace.head(4000))
    feas = []
    for beta_fixed in (0.0, 0.5, 0.7):
        _, g = em.run_cem(prep, "er", 1.0, seed=EM_SEED, beta_fixed=beta_fixed)
        feas.append(check_feasibility(g, prep.episodes).fraction)
    assert feas[0] > feas[1] > feas[2], feas
    print(f"\nACCEPTANCE C7 fixed-beta-control: PASS "
          f"(feasibility {feas[0]:.3f} > {feas[1]:.3f} > {feas[2]:.3f} "
          f"for β=0, 0.5, 0.7)")


def test_c08_lp_oracle_equivalence():
    rng = np.random.default_rng(88)
    n_checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        rows = []
        for _ in range(int(rng.integers(0, 2 * n))):
            size = int(rng.integers(1, min(n, 4) + 1))
            rows.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
        c = rng.uniform(-5, 5, size=n)
        if rng.uniform() < 0.5:
            c = -np.abs(c)
        row_ptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
        cols = np.array([v for r in rows for v in r], dtype=np.int64)
        sol = lp.solve_reduced(lp.reduce_covering(n, row_ptr, cols, np.zeros(len(rows))), c)
        assert sol.status == lp.STATUS_OPTIMAL
        for row in rows:
            assert sum(sol.x[v] for v in row) >= 1.0 - 1e-9
        best = -np.inf
        for bits in itertools.product((0.0, 1.0), repeat=n):
            x = np.array(bits)
            if all(sum(x[v] for v in row) >= 1.0 for row in rows):
                best = max(best, float(c @ x))
        assert sol.objective >= best - 1e-9
        if np.all(np.minimum(np.abs(sol.x), np.abs(sol.x - 1.0)) < 1e-9):
            assert abs(sol.objective - best) <= 1e-9
        n_checked += 1
    print(f"\nACCEPTANCE C8 lp-oracle-equivalence: PASS "
          f"({n_checked} random instances)")


def test_c09_closed_form_fixed_points():
    import mpmath

    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.5, 1 - 1e-9))
        beta = float(rng.uniform(1e-9, 0.5))
        prior_val = float(rng.uniform(0.01, 0.99))
        m = float(rng.integers(0, 40))
        sigma = float(rng.uniform())
        pairs = np.array([[0, 1]], dtype=np.int32)
        table = PairTable(2, pairs, np.array([m]), np.array([sigma]))
        params = em.ParamSet("er", alpha, beta, rho=prior_val)
        state = em.EmState(params, table, None, 2)
        got = em.update_q_er(state).q[0]
        with mpmath.workdps(50):
            a, b, pr = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(prior_val)
            ms = mpmath.mpf(m) * mpmath.mpf(sigma)
            mns = mpmath.mpf(m) - ms
            num = pr * a ** ms * (1 - a) ** mns
            want = float(num / (num + (1 - pr) * b ** ms * (1 - b) ** mns))
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12

    # hand-computed two-pair parameter updates
    pairs = np.array([[0, 1], [1, 0]], dtype=np.int32)
    table = PairTable(2, pairs, np.array([2.0, 2.0]), np.array([1.0, 0.0]))
    state = em.EmState(em.ParamSet("er", 0.8, 0.2, rho=0.5), table, None, 2)
    alpha, beta = em.update_alpha_beta(state, np.array([1.0, 0.0]))
    assert alpha == em.clamp(1.0) and beta == em.clamp(0.0)
    state.q_prior_used = (0.0,)
    assert em.update_prior_er(state, np.array([1.0, 1.0])) == pytest.approx(1.0)
    sbm_state = em.EmState(
        em.ParamSet("sbm", 0.8, 0.2, p_in=0.5, q_out=0.5),
        table, np.array([0, 1]), 2, q_prior_used=(0.5, 0.5),
    )
    p_new, q_new = em.update_prior_sbm(sbm_state, np.array([0.9, 0.7]))
    assert p_new == 0.5  # no intra pairs: retains previous value
    assert q_new == pytest.approx(0.8)
    print(f"\nACCEPTANCE C9 closed-form-fixed-points: PASS "
          f"(max |ΔQ| = {worst:.2e})")


def test_c10_sbm_reduces_to_er():
    out = simulate(SimConfig(seed=CANON, n_events=30_000))
    trace = out.trace
    single = np.zeros(trace.n_users, dtype=int)
    for iters in (1, 2, 3, 50):
        prep_er = em.preprocess(trace)
        prep_sbm = em.preprocess(trace)
        em.run_cem(prep_er, "er", 1.0, seed=EM_SEED, max_iters=iters)
        em.run_cem(prep_sbm, "sbm", 1.0, seed=EM_SEED, max_iters=iters,
                   fixed_groups=single)
        assert np.array_equal(prep_er.table.q, prep_sbm.table.q), iters
        assert np.array_equal(prep_er.table.sigma, prep_sbm.table.sigma), iters
    print("\nACCEPTANCE C10 sbm-to-er-reduction: PASS "
          "(identical Q tables at iterations 1, 2, 3 and at convergence)")


def test_c11_determinism_byte_identical(tmp_path):
    paths = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert cli_main([
            "simulate", "--seed", "1", "--n-events", "20000",
            "--out-trace", str(d / "trace.csv"),
            "--out-truth", str(d / "truth.csv"),
            "--out-labels", str(d / "labels.csv"),
        ]) == 0
        assert cli_main([
            "infer", "--trace", str(d / "trace.csv"), "--prior", "sbm",
            "--lambda", "1.0", "--seed", "7",
            "--out-graph", str(d / "graph.csv"),
            "--out-state", str(d / "state.json"),
        ]) == 0
        assert cli_main([
            "evaluate", "--inferred", str(d / "graph.csv"),
            "--truth", str(d / "truth.csv"),
            "--trace", str(d / "trace.csv"),
            "--out", str(d / "report.json"),
        ]) == 0
        paths[tag] = d
    for name in ("trace.csv", "truth.csv", "labels.csv", "graph.csv",
                 "state.json", "report.json"):
        assert (paths["a"] / name).read_bytes() == (paths["b"] / name).read_bytes(), name
    print("\nACCEPTANCE C11 determinism: PASS "
          "(byte-identical traces, graphs, states, and reports)")
