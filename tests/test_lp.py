import itertools
import logging
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from cemnet import lp


def _csr(rows):
    """``(row_ptr, cols)`` of tuple rows."""
    row_ptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    cols = np.array([v for r in rows for v in r], dtype=np.int64)
    return row_ptr, cols


def _reduce(n, rows, targets=None):
    """``reduce_covering`` of tuple rows, all under one target unless ``targets`` is given."""
    targets = np.zeros(len(rows), dtype=np.int64) if targets is None else targets
    return lp.reduce_covering(n, *_csr(rows), targets)


def _dense(n, rows):
    R = np.zeros((len(rows), n), dtype=bool)
    for r, row in enumerate(rows):
        R[r, list(row)] = True
    return R


def _solve(c, rows, **kw):
    c = np.asarray(c, dtype=np.float64)
    return lp.solve_reduced(_reduce(len(c), rows), c, **kw)


def _covers(x, rows):
    return all(sum(x[v] for v in row) >= 1.0 - 1e-9 for row in rows)


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
    return c, rows


def _best_binary(c, rows):
    best = -np.inf
    for bits in itertools.product((0.0, 1.0), repeat=len(c)):
        x = np.array(bits)
        if all(sum(x[v] for v in row) >= 1.0 for row in rows):
            best = max(best, float(c @ x))
    return best


def _scipy_optimum(c, rows):
    n = len(c)
    if rows:
        a_ub, b_ub = -_dense(n, rows).astype(float), -np.ones(len(rows))
    else:
        a_ub, b_ub = None, None
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * n, method="highs")
    assert res.status == 0
    return -res.fun


def test_spec_example_min_cover_regime():
    sol = _solve([-1.0, -1.0, -1.0], [(0,), (1, 2)])
    assert sol.status == lp.STATUS_OPTIMAL
    assert sol.x[0] == 1.0
    assert sorted(sol.x[1:]) == [0.0, 1.0]
    assert sol.objective == -2.0


def test_spec_example_monotone_objective():
    sol = _solve(np.ones(4), [(0, 1), (2, 3)])
    assert np.array_equal(sol.x, np.ones(4))
    assert sol.objective == 4.0


def test_spec_example_box_only():
    sol = _solve([2.0, -3.0], [])
    assert np.array_equal(sol.x, np.array([1.0, 0.0]))
    assert sol.objective == 2.0


def test_greedy_spec_examples():
    # second row already covered by the first pick
    x = lp._greedy_local(_dense(2, [(0,), (0, 1)]), np.array([0.0, 5.0]))
    assert np.array_equal(x, np.array([1.0, 0.0]))
    # empty row set
    x = lp._greedy_local(_dense(2, []), np.array([1.0, -1.0]))
    assert np.array_equal(x, np.zeros(2))
    # argmax within the row
    x = lp._greedy_local(_dense(2, [(0, 1)]), np.array([-1.0, -2.0]))
    assert np.array_equal(x, np.array([1.0, 0.0]))
    # the lowest index wins a tie
    x = lp._greedy_local(_dense(3, [(0, 1, 2)]), np.array([-2.0, -1.0, -1.0]))
    assert np.array_equal(x, np.array([0.0, 1.0, 0.0]))


def test_greedy_always_feasible(rng):
    for _ in range(50):
        c, rows = _random_instance(rng)
        x = lp._greedy_local(_dense(len(c), rows), c)
        assert _covers(x, rows)
        assert set(np.unique(x)) <= {0.0, 1.0}


def test_solution_dominates_binary_enumeration(rng):
    for _ in range(80):
        c, rows = _random_instance(rng, max_vars=8)
        sol = _solve(c, rows)
        assert sol.status == lp.STATUS_OPTIMAL
        assert _covers(sol.x, rows)
        assert np.all(sol.x >= -1e-12) and np.all(sol.x <= 1.0 + 1e-12)
        best = _best_binary(c, rows)
        assert sol.objective >= best - 1e-9
        integral = np.all(np.minimum(np.abs(sol.x), np.abs(sol.x - 1.0)) < 1e-9)
        if integral:
            assert sol.objective == pytest.approx(best, abs=1e-9)


def test_matches_external_solver(rng):
    for _ in range(60):
        c, rows = _random_instance(rng)
        sol = _solve(c, rows)
        assert sol.objective == pytest.approx(_scipy_optimum(c, rows), abs=1e-7)


def _degenerate_instance(rng, max_vars=16):
    """Integer costs in {-3, ..., 0}: dual ratio ties and zero costs are dense."""
    n = int(rng.integers(2, max_vars + 1))
    rows = [tuple(sorted(rng.choice(n, size=int(rng.integers(2, min(n, 5) + 1)),
                                    replace=False).tolist()))
            for _ in range(int(rng.integers(1, 3 * n)))]
    return rng.integers(-3, 1, size=n).astype(np.float64), rows


def test_degenerate_instances_match_external_solver(rng):
    for _ in range(150):
        c, rows = _degenerate_instance(rng)
        sol = _solve(c, rows)
        assert sol.status == lp.STATUS_OPTIMAL
        assert _covers(sol.x, rows)
        assert sol.objective == pytest.approx(_scipy_optimum(c, rows), abs=1e-9)
        assert np.array_equal(_solve(c, rows).x, sol.x)


def test_n1000_stall_component_reaches_the_optimum():
    """A component of the first N=1000 sigma LP (see data/make_stall_component.py)."""
    data = np.load(Path(__file__).with_name("data") / "stall_component.npz")
    n = int(data["n_vars"])
    R = np.unpackbits(data["rows"], axis=1, count=n).astype(bool)
    rows = [tuple(np.flatnonzero(r).tolist()) for r in R]
    sol = _solve(data["c"], rows)
    assert sol.status == lp.STATUS_OPTIMAL
    assert _covers(sol.x, rows)
    assert sol.objective == pytest.approx(_scipy_optimum(data["c"], rows), rel=1e-12)


# cut down from a component of the first N=1000 sigma LP: on the way to the
# optimum, basic variables above one leave at their upper bound, and two of
# them share a row
UPPER_ROWS = [
    (6, 16), (13, 18), (23, 26), (2, 25), (7, 17, 21), (7, 14, 29), (12, 24, 28),
    (3, 4, 18, 25, 29), (3, 8, 20), (10, 15), (2, 5, 27), (2, 16, 19), (8, 20, 24),
    (5, 9, 13, 25, 26), (1, 15), (4, 12, 24), (11, 12, 21, 27, 28),
    (11, 14, 16, 20, 26, 28), (4, 6), (8, 9, 10, 11, 14, 22), (0, 1, 10, 11, 17, 19, 21),
]
UPPER_C = -np.array([
    169, 125, 114, 165, 133, 116, 135, 154, 118, 191, 118, 114, 116, 116, 120,
    118, 148, 125, 177, 166, 134, 180, 166, 125, 118, 116, 180, 111, 125, 165,
], dtype=np.float64)


def test_columns_leaving_at_their_upper_bound():
    sol = _solve(UPPER_C, UPPER_ROWS)
    assert sol.status == lp.STATUS_OPTIMAL
    assert _covers(sol.x, UPPER_ROWS)
    assert sol.objective == pytest.approx(_scipy_optimum(UPPER_C, UPPER_ROWS), abs=1e-9)


def test_fractional_optimum_odd_cycle():
    # pairwise covering on a triangle: LP optimum is the half vector
    rows = [(0, 1), (1, 2), (0, 2)]
    sol = _solve(-np.ones(3), rows)
    assert sol.objective == pytest.approx(-1.5, abs=1e-9)
    assert _best_binary(-np.ones(3), rows) == -2.0


def test_determinism_bitwise(rng):
    for _ in range(10):
        c, rows = _random_instance(rng)
        a = _solve(c, rows)
        b = _solve(c, rows)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective


# greedy picks the per-row argmax (three cheap singles); the shared
# variable is the optimum, reachable only by pivoting
PIVOT_C = np.array([-2.5, -1.0, -1.0, -1.0])
PIVOT_ROWS = [(0, 1), (0, 2), (0, 3)]


def test_iteration_limit_returns_feasible_point():
    capped = _solve(PIVOT_C, PIVOT_ROWS, max_pivots=0)
    assert capped.status == lp.STATUS_ITERATION_LIMIT
    assert capped.objective == -3.0
    assert _covers(capped.x, PIVOT_ROWS)
    full = _solve(PIVOT_C, PIVOT_ROWS)
    assert full.status == lp.STATUS_OPTIMAL
    assert full.objective == -2.5


def test_structural_reduction_reuse(rng):
    """One reduction serves many objectives and is not changed by them."""
    c, rows = _random_instance(rng)
    reduced = _reduce(len(c), rows)
    for comp in reduced.components:
        assert not comp.rows.flags.writeable
    for _ in range(5):
        c = rng.uniform(-3, 3, size=len(c))
        a = lp.solve_reduced(reduced, c)
        b = _solve(c, rows)
        assert np.array_equal(a.x, b.x) and a.status == b.status
        assert a.objective == pytest.approx(_scipy_optimum(c, rows), abs=1e-7)


def test_validation_errors():
    with pytest.raises(ValueError, match="empty"):
        lp.reduce_covering(2, [0, 0], [], [0])
    with pytest.raises(ValueError, match="out of range"):
        lp.reduce_covering(2, [0, 1], [5], [0])
    # a negative id would otherwise index from the end and pin the last variable
    with pytest.raises(ValueError, match="out of range"):
        lp.reduce_covering(3, [0, 1, 3], [-1, 0, 1], [0, 0])
    with pytest.raises(ValueError, match="1 targets for 2 covering rows"):
        lp.reduce_covering(3, [0, 1, 3], [2, 0, 1], [0])


def test_variable_under_two_targets_is_refused():
    # variable 1 sits in a row of target 7 and in a row of target 3
    with pytest.raises(ValueError, match="variable 1 appears under two targets"):
        _reduce(4, [(0, 1), (1, 2), (3,)], targets=np.array([7, 3, 3]))


def test_dump_problem(tmp_path):
    path = tmp_path / "problem.lp"
    lp.dump_problem(np.array([-1.0, 0.5]), *_csr([(0, 1)]), path)
    text = path.read_text()
    assert "Maximize" in text and "x0 + x1 >= 1" in text and "Bounds" in text


def test_singular_final_basis_returns_greedy_cover(monkeypatch, caplog):
    def singular(a, b):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with caplog.at_level(logging.WARNING, logger="cemnet.lp"):
        sol = _solve(PIVOT_C, PIVOT_ROWS)
    assert "singular final basis" in caplog.text
    assert "returning the greedy cover" in caplog.text
    assert sol.status == lp.STATUS_ITERATION_LIMIT
    assert sol.n_pivots > 0
    assert np.array_equal(sol.x, lp._greedy_local(_dense(4, PIVOT_ROWS), PIVOT_C))
    assert _covers(sol.x, PIVOT_ROWS)


def test_residual_check_flags_uncovered_rows(monkeypatch, caplog):
    monkeypatch.setattr(lp, "_dual_simplex", lambda R, c, max_pivots: (np.zeros(len(c)), 0, None))
    with caplog.at_level(logging.ERROR, logger="cemnet.lp"):
        sol = _solve(PIVOT_C, PIVOT_ROWS)
    assert sol.status == lp.STATUS_INFEASIBLE
    assert "residual" in caplog.text


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


def _check_against_reference(n, rows, targets):
    reduced = _reduce(n, rows, np.array(targets, dtype=np.int64))
    forced, comps = _reference_reduce(n, rows)
    assert reduced.n_vars == n
    assert reduced.forced_ones.dtype == np.int64
    assert reduced.forced_ones.tolist() == forced
    for c in reduced.components:
        assert c.rows.dtype == bool and c.rows.shape[1] == len(c.var_ids)
    assert [(c.var_ids.tolist(), [tuple(np.flatnonzero(r).tolist()) for r in c.rows])
            for c in reduced.components] == comps


def _with_repeats(rng, rows, targets):
    extra = rng.integers(0, len(rows), size=len(rows) // 3) if rows else []
    return rows + [rows[k] for k in extra], targets + [targets[k] for k in extra]


def test_reduce_covering_matches_reference(rng):
    """Singletons, repeated rows, repeated variables within a row, supersets;
    all rows under one target, then variables split among 2-4 targets."""
    for _ in range(200):
        n = int(rng.integers(1, 14))
        rows = [tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, 5))))
                for _ in range(int(rng.integers(0, 3 * n)))]
        _check_against_reference(n, *_with_repeats(rng, rows, [0] * len(rows)))
    for _ in range(200):
        n = int(rng.integers(2, 14))
        owner = rng.integers(0, int(rng.integers(2, 5)), size=n)
        rows, targets = [], []
        for _ in range(int(rng.integers(0, 3 * n))):
            mine = np.flatnonzero(owner == owner[rng.integers(n)])
            rows.append(tuple(int(v) for v in rng.choice(mine, size=int(rng.integers(1, 5)))))
            targets.append(100 - int(owner[rows[-1][0]]))  # ids unrelated to variable order
        _check_against_reference(n, *_with_repeats(rng, rows, targets))


def test_stale_basis_falls_back_to_a_cold_solve():
    reduced = _reduce(4, PIVOT_ROWS)
    first = lp.solve_reduced(reduced, PIVOT_C)
    assert first.n_solved == 1 and first.n_reused == 0 and first.n_pivots > 0
    # same pinning and kept columns; the shared variable stays optimal
    still = PIVOT_C + np.array([0.1, 0.0, 0.0, 0.0])
    warm = lp.solve_reduced(reduced, still, warm=first.warm)
    assert (warm.n_reused, warm.n_pivots) == (1, 0)
    assert np.array_equal(warm.x, lp.solve_reduced(reduced, still).x)
    # the three singles now beat it: the old basis fails the check
    stale = PIVOT_C - np.array([1.0, 0.0, 0.0, 0.0])
    warm = lp.solve_reduced(reduced, stale, warm=first.warm)
    cold = lp.solve_reduced(reduced, stale)
    assert warm.n_reused == 0 and warm.n_pivots == cold.n_pivots > 0
    assert warm.status == cold.status == lp.STATUS_OPTIMAL
    assert np.array_equal(warm.x, cold.x) and warm.objective == -3.0
    assert warm.warm.components[0].basis is not None


def test_failed_certificate_returns_greedy_cover(monkeypatch, caplog):
    monkeypatch.setattr(lp, "_dual_feasible", lambda R, c, basis, at_upper: False)
    with caplog.at_level(logging.WARNING, logger="cemnet.lp"):
        sol = _solve(PIVOT_C, PIVOT_ROWS)
    assert "fails the optimality check" in caplog.text
    assert sol.status == lp.STATUS_ITERATION_LIMIT
    assert np.array_equal(sol.x, lp._greedy_local(_dense(4, PIVOT_ROWS), PIVOT_C))
    assert sol.warm.components[0].basis is None


def test_pinning_a_column_rebuilds_only_its_component(rng):
    rows = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)]
    reduced = _reduce(6, rows)
    assert len(reduced.components) == 2
    c = -rng.uniform(1, 2, size=6)
    first = lp.solve_reduced(reduced, c)
    flipped = c.copy()
    flipped[4] = 0.5
    sol = lp.solve_reduced(reduced, flipped, warm=first.warm)
    (a0, a1), (b0, b1) = first.warm.components, sol.warm.components
    assert b0.R is a0.R and b0.gid is a0.gid
    assert b1.R is not a1.R and b1.free.tolist() == [True, False, True]
    assert sol.n_reused == 1 and sol.n_solved == 2
    cold = lp.solve_reduced(reduced, flipped)
    assert np.array_equal(sol.x, cold.x) and sol.status == cold.status
    # and back: the restored pinning rebuilds the structure it had
    back = lp.solve_reduced(reduced, c, warm=sol.warm)
    assert np.array_equal(back.warm.components[1].R, a1.R)
    assert np.array_equal(back.x, first.x)


def test_warm_state_from_another_reduction_is_refused():
    first = _solve(PIVOT_C, PIVOT_ROWS)
    other = _reduce(4, PIVOT_ROWS)
    with pytest.raises(ValueError, match="another reduction"):
        lp.solve_reduced(other, PIVOT_C, warm=first.warm)
