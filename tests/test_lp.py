import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from cemnet import lp


def _random_instance(rng, max_vars=12):
    n = int(rng.integers(2, max_vars + 1))
    n_rows = int(rng.integers(0, 2 * n))
    rows = []
    for _ in range(n_rows):
        size = int(rng.integers(1, min(n, 4) + 1))
        rows.append(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    c = rng.uniform(-5, 5, size=n)
    if rng.uniform() < 0.5:
        c = -np.abs(c)  # the shifted-objective regime: all coefficients <= 0
    return lp.LpProblem(c, tuple(rows))


def _best_binary(problem):
    best = -np.inf
    n = problem.n_vars
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if all(sum(x[v] for v in row) >= 1.0 for row in problem.rows):
            best = max(best, float(problem.objective @ x))
    return best


def _scipy_optimum(problem):
    n = problem.n_vars
    if problem.rows:
        a_ub = np.zeros((len(problem.rows), n))
        for r, row in enumerate(problem.rows):
            a_ub[r, list(row)] = -1.0
        b_ub = -np.ones(len(problem.rows))
    else:
        a_ub, b_ub = None, None
    res = linprog(
        -problem.objective, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * n,
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def test_spec_example_min_cover_regime():
    problem = lp.LpProblem(np.array([-1.0, -1.0, -1.0]), ((0,), (1, 2)))
    sol = lp.solve(problem)
    assert sol.status == lp.STATUS_OPTIMAL
    assert sol.x[0] == 1.0
    assert sorted(sol.x[1:]) == [0.0, 1.0]
    assert sol.objective == -2.0


def test_spec_example_monotone_objective():
    problem = lp.LpProblem(np.ones(4), ((0, 1), (2, 3)))
    sol = lp.solve(problem)
    assert np.array_equal(sol.x, np.ones(4))
    assert sol.objective == 4.0


def test_spec_example_box_only():
    problem = lp.LpProblem(np.array([2.0, -3.0]), ())
    sol = lp.solve(problem)
    assert np.array_equal(sol.x, np.array([1.0, 0.0]))
    assert sol.objective == 2.0


def test_greedy_spec_examples():
    # second row already covered by the first pick
    x = lp.greedy_cover_warm_start(lp.LpProblem(np.array([0.0, 5.0]), ((0,), (0, 1))))
    assert np.array_equal(x, np.array([1.0, 0.0]))
    # empty row set
    x = lp.greedy_cover_warm_start(lp.LpProblem(np.array([1.0, -1.0]), ()))
    assert np.array_equal(x, np.zeros(2))
    # argmax within the row
    x = lp.greedy_cover_warm_start(lp.LpProblem(np.array([-1.0, -2.0]), ((0, 1),)))
    assert np.array_equal(x, np.array([1.0, 0.0]))


def test_greedy_always_feasible(rng):
    for _ in range(50):
        problem = _random_instance(rng)
        x = lp.greedy_cover_warm_start(problem)
        assert all(sum(x[v] for v in row) >= 1.0 for row in problem.rows)
        assert set(np.unique(x)) <= {0.0, 1.0}


def test_solution_dominates_binary_enumeration(rng):
    for _ in range(80):
        problem = _random_instance(rng, max_vars=8)
        sol = lp.solve(problem)
        assert sol.status == lp.STATUS_OPTIMAL
        for row in problem.rows:
            assert sum(sol.x[v] for v in row) >= 1.0 - 1e-9
        assert np.all(sol.x >= -1e-12) and np.all(sol.x <= 1.0 + 1e-12)
        best = _best_binary(problem)
        assert sol.objective >= best - 1e-9
        integral = np.all(np.minimum(np.abs(sol.x), np.abs(sol.x - 1.0)) < 1e-9)
        if integral:
            assert sol.objective == pytest.approx(best, abs=1e-9)


def test_matches_external_solver(rng):
    for _ in range(60):
        problem = _random_instance(rng)
        sol = lp.solve(problem)
        assert sol.objective == pytest.approx(_scipy_optimum(problem), abs=1e-7)


def test_fractional_optimum_odd_cycle():
    # pairwise covering on a triangle: LP optimum is the half vector
    problem = lp.LpProblem(-np.ones(3), ((0, 1), (1, 2), (0, 2)))
    sol = lp.solve(problem)
    assert sol.objective == pytest.approx(-1.5, abs=1e-9)
    assert _best_binary(problem) == -2.0


def test_determinism_bitwise(rng):
    for _ in range(10):
        problem = _random_instance(rng)
        a = lp.solve(problem)
        b = lp.solve(problem)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective


def test_iteration_limit_returns_feasible_point():
    # greedy picks the per-row argmax (three cheap singles); the shared
    # variable is the optimum, reachable only by pivoting
    problem = lp.LpProblem(
        np.array([-2.5, -1.0, -1.0, -1.0]), ((0, 1), (0, 2), (0, 3))
    )
    capped = lp.solve(problem, max_pivots=0)
    assert capped.status == lp.STATUS_ITERATION_LIMIT
    assert capped.objective == -3.0
    for row in problem.rows:
        assert sum(capped.x[v] for v in row) >= 1.0 - 1e-9
    full = lp.solve(problem)
    assert full.status == lp.STATUS_OPTIMAL
    assert full.objective == -2.5


def test_structural_reduction_reuse(rng):
    problem = _random_instance(rng)
    reduced = lp.reduce_covering(problem.n_vars, *lp.rows_to_csr(problem.rows))
    for _ in range(5):
        c = rng.uniform(-3, 3, size=problem.n_vars)
        a = lp.solve_reduced(reduced, c)
        b = lp.solve(lp.LpProblem(c, problem.rows))
        assert a.objective == pytest.approx(b.objective, abs=1e-9)


def test_validation_errors():
    with pytest.raises(ValueError, match="no variables"):
        lp.LpProblem(np.ones(2), ((),))
    with pytest.raises(ValueError, match="out of range"):
        lp.LpProblem(np.ones(2), ((5,),))


def test_dump_problem(tmp_path):
    problem = lp.LpProblem(np.array([-1.0, 0.5]), ((0, 1),))
    path = tmp_path / "problem.lp"
    lp.dump_problem(problem, path)
    text = path.read_text()
    assert "Maximize" in text and "x0 + x1 >= 1" in text and "Bounds" in text


def _reference_reduce(n_vars, rows):
    """The reduction on tuple rows, one row at a time."""
    forced = {row[0] for row in rows if len(row) == 1}
    survivors = sorted({tuple(sorted(set(r))) for r in rows if not forced & set(r)},
                       key=lambda r: (len(r), r))
    kept = []
    for row in survivors:
        if not any(set(k) <= set(row) for k in kept):
            kept.append(row)
    comps = []  # [vars, row ids] merged whenever a row touches them
    for ridx, row in enumerate(kept):
        hit = [c for c in comps if c[0] & set(row)]
        merged = [set(row), [ridx]]
        for c in hit:
            merged[0] |= c[0]
            merged[1] += c[1]
            comps.remove(c)
        comps.append(merged)
    out = []
    for var_set, row_ids in sorted(comps, key=lambda c: min(c[0])):
        var_ids = sorted(var_set)
        local = {v: i for i, v in enumerate(var_ids)}
        out.append((var_ids, [tuple(local[v] for v in kept[k]) for k in sorted(row_ids)]))
    return sorted(forced), out


def test_reduce_covering_matches_reference(rng):
    """Singletons, repeated rows, repeated variables within a row, supersets."""
    for _ in range(200):
        n = int(rng.integers(1, 14))
        rows = [tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, 5))))
                for _ in range(int(rng.integers(0, 3 * n)))]
        rows += [rows[k] for k in rng.integers(0, len(rows), size=len(rows) // 3)] if rows else []
        reduced = lp.reduce_covering(n, *lp.rows_to_csr(rows))
        forced, comps = _reference_reduce(n, rows)
        assert reduced.n_vars == n
        assert reduced.forced_ones.dtype == np.int64
        assert reduced.forced_ones.tolist() == forced
        assert [(c.var_ids.tolist(), list(c.rows)) for c in reduced.components] == comps
