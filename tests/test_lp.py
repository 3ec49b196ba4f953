import dataclasses
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


def test_iteration_limit_returns_feasible_point(monkeypatch):
    full = _solve(PIVOT_C, PIVOT_ROWS)
    assert full.status == lp.STATUS_OPTIMAL
    assert full.objective == -2.5
    monkeypatch.setattr(lp, "_pivot_budget", lambda m, n: 0)
    capped = _solve(PIVOT_C, PIVOT_ROWS)
    assert capped.status == lp.STATUS_ITERATION_LIMIT
    assert capped.objective == -3.0
    assert _covers(capped.x, PIVOT_ROWS)


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
    dual_simplex = lp._dual_simplex
    # a certified final basis with an x that covers no row
    monkeypatch.setattr(lp, "_dual_simplex",
                        lambda R, c: (np.zeros(len(c)), *dual_simplex(R, c)[1:]))
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
    for c, lo in zip(reduced.components, reduced.var_ptr.tolist()):
        assert c.rows.dtype == bool and c.rows.shape[1] == len(c.var_ids)
        # a read-only view of the one flat store
        assert c.var_ids.base is reduced.var_ids and not c.var_ids.flags.writeable
        assert np.array_equal(c.var_ids, reduced.var_ids[lo:lo + len(c.var_ids)])
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
    assert warm.warm.bases.comp.tolist() == [0]


def test_failed_certificate_returns_greedy_cover(monkeypatch, caplog):
    monkeypatch.setattr(lp, "_certified", lambda bases, c, reduced: np.zeros(len(bases.comp), bool))
    with caplog.at_level(logging.WARNING, logger="cemnet.lp"):
        sol = _solve(PIVOT_C, PIVOT_ROWS)
    assert "fails the optimality check" in caplog.text
    assert sol.status == lp.STATUS_ITERATION_LIMIT
    assert np.array_equal(sol.x, lp._greedy_local(_dense(4, PIVOT_ROWS), PIVOT_C))
    assert len(sol.warm.bases.comp) == 0


def test_pinning_a_column_rebuilds_only_its_component(rng):
    rows = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)]
    reduced = _reduce(6, rows)
    assert len(reduced.components) == 2
    c = -rng.uniform(1, 2, size=6)
    first = lp.solve_reduced(reduced, c)
    flipped = c.copy()
    flipped[4] = 0.5
    sol = lp.solve_reduced(reduced, flipped, warm=first.warm)
    a, b = first.warm, sol.warm
    split, row_split = reduced.var_ptr[1], reduced.comp_rows[1]
    # component 0's open rows and groups are carried over as they were
    assert np.array_equal(b.open_rows[:row_split], a.open_rows[:row_split])
    assert np.array_equal(b.columns.group[:split], a.columns.group[:split])
    # component 1's are rebuilt: only the row without variable 4 stays open
    assert b.free[split:].tolist() == [True, False, True]
    assert a.open_rows[row_split:].all()
    assert np.array_equal(b.open_rows[row_split:], ~reduced.components[1].rows[:, 1])
    assert b.columns.group[split:][1] == -1 and a.columns.group[split:][1] >= 0
    assert sol.n_reused == 1 and sol.n_solved == 2
    # component 0's stored basis is carried over as it was
    old, new = a.bases, b.bases
    assert new.comp.tolist() == old.comp.tolist() == [0, 1]
    assert np.array_equal(new.ids[:new.col_ptr[1]], old.ids[:old.col_ptr[1]])
    assert np.array_equal(new.y_val[:new.y_ptr[1]], old.y_val[:old.y_ptr[1]])
    cold = lp.solve_reduced(reduced, flipped)
    assert np.array_equal(sol.x, cold.x) and sol.status == cold.status
    # an unchanged pinning rebuilds nothing
    again = lp.solve_reduced(reduced, flipped, warm=b)
    assert again.warm.open_rows is b.open_rows and again.warm.columns is b.columns
    # and back: the restored pinning rebuilds the structure it had
    back = lp.solve_reduced(reduced, c, warm=sol.warm)
    assert np.array_equal(back.warm.open_rows, a.open_rows)
    assert np.array_equal(back.warm.columns.group, a.columns.group)
    assert np.array_equal(back.x, first.x)


def _arrays(value):
    """Every array a (nested) warm state holds; anything else fails."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    assert dataclasses.is_dataclass(value), type(value)
    return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]


def test_warm_state_is_flat(rng):
    n, rows = _chain_instance(rng)
    sol = lp.solve_reduced(_reduce(n, rows), -rng.uniform(1, 2, size=n))
    assert len(sol.warm.bases.comp) > 1
    held = [a for f in dataclasses.fields(sol.warm) if f.name != "reduced"
            for a in _arrays(getattr(sol.warm, f.name))]
    assert len(held) > 10 and all(a.ndim == 1 for a in held)


def _reference_columns(comp, free):
    """``_columns`` by tuples: a free column in an open row takes the global
    id of the first column with the same entries in the open rows."""
    open_rows = ~comp.rows[:, ~free].any(axis=1)
    first, group = {}, []
    for j, var in enumerate(comp.var_ids.tolist()):
        key = tuple(comp.rows[open_rows, j].tolist())
        group.append(first.setdefault(key, var) if free[j] and any(key) else -1)
    return open_rows, group


def test_columns_match_tuple_grouping(rng):
    for trial in range(400):
        m = trial % 20 + 1  # open row counts on both sides of a packed byte
        n = int(rng.integers(1, 16))
        # columns drawn from a few patterns, so that many are identical
        patterns = rng.uniform(size=(m, 4)) < rng.uniform(0.2, 0.8)
        patterns[:, 0] = False  # all-zero columns
        R = patterns[:, rng.integers(0, 4, size=n)]
        var_ids = np.sort(rng.choice(1000, size=n, replace=False))
        comp = lp._Component(var_ids, R)
        free = rng.uniform(size=n) < (0.0 if trial % 10 == 0 else 0.85)
        open_rows, group = lp._columns(comp, free)
        want_open, want_group = _reference_columns(comp, free)
        assert np.array_equal(open_rows, want_open)
        assert group.tolist() == want_group


def test_warm_state_from_another_reduction_is_refused():
    first = _solve(PIVOT_C, PIVOT_ROWS)
    other = _reduce(4, PIVOT_ROWS)
    with pytest.raises(ValueError, match="another reduction"):
        lp.solve_reduced(other, PIVOT_C, warm=first.warm)


def _edge_costs(rng, R, basis, at_upper, big):
    """Costs under which ``basis`` has chosen reduced costs, many of them
    within 1e-12 of the tolerance edge; None if no structural column is
    nonbasic at its lower bound to carry the largest cost ``big``."""
    m, n = R.shape
    basic = np.zeros(n + m, dtype=bool)
    basic[basis] = True
    lower = np.flatnonzero(~basic[:n] & ~at_upper[:n])
    if not len(lower):
        return None
    tol = lp.DUAL_TOL * max(1.0, big)

    def reduced_cost(upper):
        # optimal: d >= -tol at the lower bound, d <= tol at the upper one
        sign = 1.0 if upper else -1.0
        kind = rng.choice(["far", "inside", "outside"], p=[0.6, 0.3, 0.1])
        if kind == "far":
            return -sign * rng.uniform(0.01, 0.1)
        step = rng.uniform(1e-13, 1e-12)
        return sign * (tol + (-step if kind == "inside" else step))

    # duals on a dyadic grid keep R.T @ y exact; a basic surplus pins its dual to 0
    y = rng.integers(-8, 9, size=m) / 8 * (big / 16)
    y[basis[basis >= n] - n] = 0.0
    for r in np.flatnonzero(~basic[n:]):
        if rng.uniform() < 0.3:
            y[r] = reduced_cost(False)  # a nonbasic surplus's reduced cost is its dual
    ry = R.astype(np.float64).T @ y
    c = -ry  # basic columns: reduced cost zero
    for j in np.flatnonzero(~basic[:n]):
        c[j] = -ry[j] - reduced_cost(bool(at_upper[j]))
    c[lower[0]] = -big
    return c


def _dense_certificate(R, c, basis, at_upper):
    """The optimality test on one basis, computed anew: a fresh inverse, dense
    reduced costs, and every nonbasic one of the optimal sign to within
    ``DUAL_TOL`` times the largest cost."""
    m = len(R)
    A = np.hstack([R, -np.eye(m)])
    cost = np.concatenate([-c, np.zeros(m)])  # the simplex minimizes
    d = cost - (cost[basis] @ np.linalg.inv(A[:, basis])) @ A
    d[basis] = 0.0
    tol = lp.DUAL_TOL * max(1.0, float(np.abs(c).max()))
    return not np.where(at_upper, d > tol, d < -tol).any()


def test_batched_certificate_agrees_with_a_dense_check(rng):
    """Random bases of random components, costs at the tolerance edge."""
    seen = {True: 0, False: 0}
    for _ in range(60):
        # rows within three blocks of variables: several components per batch
        sizes = rng.integers(3, 7, size=3)
        n = int(sizes.sum())
        rows = []
        for lo, size in zip(np.cumsum(sizes) - sizes, sizes):
            rows += [tuple(sorted((lo + rng.choice(size, size=int(rng.integers(2, 4)),
                                                   replace=False)).tolist()))
                     for _ in range(int(rng.integers(2, 2 * size)))]
        reduced = _reduce(n, rows)
        c = np.zeros(n)
        comps, parts, expect = [], [], []
        for k, comp in enumerate(reduced.components):
            R = comp.rows
            m, width = R.shape
            A = np.hstack([R, -np.eye(m)])
            for _ in range(20):
                basis = rng.choice(width + m, size=m, replace=False)
                if np.linalg.cond(A[:, basis]) < 50:
                    break
            else:
                continue
            at_upper = np.zeros(width + m, dtype=bool)
            at_upper[:width] = rng.uniform(size=width) < 0.4
            at_upper[basis] = False
            local = _edge_costs(rng, R, basis, at_upper, big=float(rng.choice([0.5, 10.0])))
            if local is None:
                continue
            c[comp.var_ids] = local
            rows_k = np.arange(reduced.comp_rows[k], reduced.comp_rows[k + 1])
            comps.append(k)
            structural = np.flatnonzero(basis < width)
            sign = np.where(at_upper[:width], -1.0, 1.0)
            sign[basis[structural]] = 0.0
            row_sign = np.ones(m)
            row_sign[basis[basis >= width] - width] = 0.0
            parts.append(dict(ids=comp.var_ids, xs=np.zeros(width), sign=sign, rows=rows_k,
                              row_sign=row_sign, y_row=np.tile(rows_k, len(structural)),
                              y_var=np.repeat(comp.var_ids[basis[structural]], m),
                              y_val=np.linalg.inv(A[:, basis])[structural].ravel()))
            expect.append(_dense_certificate(R, local, basis, at_upper))
        bases = lp._Bases.of(comps, parts)
        got = lp._certified(bases, c, reduced)
        assert got.tolist() == expect
        # blocks of a few bases, and of a few component rows, decide alike
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp, "BLOCK_SLOTS", int(rng.integers(1, 40)))
            assert lp._certified(bases, c, _reduce(n, rows)).tolist() == expect
        for e in expect:
            seen[e] += 1
    assert seen[True] >= 40 and seen[False] >= 40


def test_basis_failing_only_the_batched_check_is_solved_cold(monkeypatch):
    reduced = _reduce(4, PIVOT_ROWS)
    first = lp.solve_reduced(reduced, PIVOT_C)
    still = PIVOT_C + np.array([0.1, 0.0, 0.0, 0.0])
    assert lp.solve_reduced(reduced, still, warm=first.warm).n_reused == 1
    certified, checked = lp._certified, []

    def fail_stored(bases, c, reduced):
        # the first check of a warm call is that of the stored bases
        checked.append(bases)
        ok = certified(bases, c, reduced)
        return ok & (len(checked) > 1)

    monkeypatch.setattr(lp, "_certified", fail_stored)
    warm = lp.solve_reduced(reduced, still, warm=first.warm)
    assert checked[0] is first.warm.bases and len(checked) == 2
    monkeypatch.undo()
    cold = lp.solve_reduced(reduced, still)
    assert warm.n_reused == 0 and warm.n_pivots == cold.n_pivots > 0
    assert np.array_equal(warm.x, cold.x) and warm.status == lp.STATUS_OPTIMAL
    # the cold solve's basis passed the real check and is stored
    assert warm.warm.bases.comp.tolist() == [0]


def _chain_instance(rng):
    """3-6 components, each a block of variables chained by pair rows, with
    random wider rows on top."""
    rows, lo = [], 0
    for size in rng.integers(4, 9, size=int(rng.integers(3, 7))).tolist():
        rows += [(lo + i, lo + i + 1) for i in range(size - 1)]
        rows += [tuple(sorted((lo + rng.choice(size, size=int(rng.integers(2, 4)),
                                               replace=False)).tolist()))
                 for _ in range(int(rng.integers(1, size)))]
        lo += size
    return lo, rows


def test_warm_chain_matches_cold_solves(rng):
    """Chains of objectives on one reduction: small perturbations (reuse),
    sign flips in some components (their pinning changes, the others' state
    is spliced in) and large cost changes (a stored basis goes stale).
    Every warm call returns the bits of a cold call."""
    seen = {"reused": 0, "spliced": 0, "stale": 0}
    for _ in range(25):
        n, rows = _chain_instance(rng)
        reduced = _reduce(n, rows)
        var_ptr, n_comp = reduced.var_ptr, len(reduced.components)
        assert 3 <= n_comp <= 6
        c = -rng.uniform(0.5, 3.0, size=n)
        warm = None
        for step in range(12):
            move = ["perturb", "flip", "perturb", "stale"][step % 4]
            if step and move == "perturb":
                c = c * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, size=n))
            elif step and move == "flip":
                for k in rng.choice(n_comp, size=int(rng.integers(1, n_comp)), replace=False):
                    v = reduced.var_ids[rng.integers(var_ptr[k], var_ptr[k + 1])]
                    c[v] = -c[v]
            elif step:
                k = rng.integers(n_comp)
                v = reduced.var_ids[rng.integers(var_ptr[k], var_ptr[k + 1])]
                c[v] = c[v] * 4.0 if c[v] < 0 else c[v]
            sol = lp.solve_reduced(reduced, c, warm=warm)
            cold = lp.solve_reduced(reduced, c)
            assert np.array_equal(sol.x, cold.x)
            assert sol.objective == cold.objective and sol.status == cold.status
            assert sol.n_solved == cold.n_solved
            if warm is not None:
                pinned = np.logical_or.reduceat(sol.warm.free != warm.free, var_ptr[:-1])
                kept_basis = np.isin(warm.bases.comp, np.flatnonzero(~pinned))
                seen["reused"] += sol.n_reused
                seen["spliced"] += bool(pinned.any() and kept_basis.any())
                # components with an unchanged pinning and a stored basis, solved cold
                seen["stale"] += int(kept_basis.sum()) - sol.n_reused
            warm = sol.warm
    assert min(seen.values()) > 0, seen
