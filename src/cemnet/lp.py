"""Box-constrained covering LPs and a bounded-variable revised simplex.

The sigma subproblem maximizes a linear objective over ``[0, 1]^P``
intersected with covering rows ``sum_{v in row} x_v >= 1``.  All constraint
coefficients are +1, which permits an exactness-preserving reduction before
pivoting: variables with positive objective go to their upper bound,
singleton rows force their variable to one, duplicate and superset rows are
redundant, and the remainder splits into independent components (rows never
share variables across reshare targets), each held as a dense bool incidence
matrix.  Per objective, every component's open rows and free columns are
solved with a primal revised simplex on the bounded variables, Dantzig
pricing with a Bland fallback, warm-started from a greedy cover; the result
must cover every component row to within ``FEAS_TOL``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger("cemnet.lp")

FEAS_TOL = 1e-9  # constraint satisfaction
OPT_TOL = 1e-9  # reduced-cost threshold for entering candidates
PIV_TOL = 1e-9  # smallest ratio-test blocker
# A chosen pivot element below this is suspect: covering bases are 0/1
# matrices whose exact inverses essentially never carry entries this small,
# so the value is factorization drift and pivoting on it would make the
# basis truly singular.  The loop refactorizes and reprices instead.
GHOST_TOL = 1e-8

STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_LIMIT = "iteration-limit"
STATUS_INFEASIBLE = "infeasible"  # a row left short of one: numerical failure


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    status: str
    n_pivots: int = 0


# ---------------------------------------------------------------------------
# objective-independent structural reduction (reusable across EM iterations)


@dataclass(frozen=True)
class _Component:
    var_ids: np.ndarray  # global variable ids, ascending
    rows: np.ndarray  # bool incidence, kept rows x len(var_ids), read-only


@dataclass(frozen=True)
class ReducedCovering:
    n_vars: int
    forced_ones: np.ndarray  # variables pinned to 1 by singleton rows
    components: tuple[_Component, ...]


def reduce_covering(n_vars: int, row_ptr: np.ndarray, cols: np.ndarray) -> ReducedCovering:
    """Objective-independent reduction of the CSR covering rows ``(row_ptr, cols)``."""
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    cols = np.asarray(cols)
    lens = np.diff(row_ptr)
    if np.any(lens < 1):
        raise ValueError("covering rows must not be empty")
    if len(cols) and (cols.min() < 0 or cols.max() >= n_vars):
        raise ValueError(f"variable id out of range 0..{n_vars - 1}")
    forced = np.unique(cols[row_ptr[:-1][lens == 1]]).astype(np.int64)

    # rows touching a forced variable are already covered
    pinned = np.zeros(n_vars, dtype=bool)
    pinned[forced] = True
    live = ~np.logical_or.reduceat(pinned[cols], row_ptr[:-1])
    live_len = lens[live]
    row_of = np.repeat(np.arange(len(live_len)), live_len)
    shift = np.repeat(row_ptr[:-1][live] - (np.cumsum(live_len) - live_len), live_len)
    cols = cols[np.arange(len(row_of)) + shift].astype(np.int64)
    # each live row as its sorted set of variables
    order = np.lexsort((cols, row_of))
    cols, row_of = cols[order], row_of[order]
    fresh = np.ones(len(cols), dtype=bool)
    fresh[1:] = (cols[1:] != cols[:-1]) | (row_of[1:] != row_of[:-1])
    cols, row_of = cols[fresh], row_of[fresh]
    # distinct rows in (length, lexicographic) order
    _, starts, lens = np.unique(row_of, return_index=True, return_counts=True)
    survivors: list[tuple[int, ...]] = []
    for length in np.unique(lens).tolist():
        block = cols[starts[lens == length][:, None] + np.arange(length)]
        block = block[np.lexsort(block.T[::-1])]
        repeat = np.zeros(len(block), dtype=bool)
        repeat[1:] = (block[1:] == block[:-1]).all(axis=1)
        survivors.extend(map(tuple, block[~repeat].tolist()))

    # superset rows are implied by their subsets
    # (a kept subset's smallest variable lies in the row, so index by it)
    kept: list[tuple[int, ...]] = []
    kept_sets: list[frozenset[int]] = []
    by_min: dict[int, list[int]] = {}
    for row in survivors:
        rowset = frozenset(row)
        if any(kept_sets[k] <= rowset for v in row for k in by_min.get(v, ())):
            continue
        by_min.setdefault(row[0], []).append(len(kept))
        kept.append(row)
        kept_sets.append(rowset)

    # connected components over shared variables
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for row in kept:
        for v in row:
            parent.setdefault(v, v)
        head = find(row[0])
        for v in row[1:]:
            parent[find(v)] = head

    groups: dict[int, list[int]] = {}
    for ridx, row in enumerate(kept):
        groups.setdefault(find(row[0]), []).append(ridx)

    components = []
    for root in sorted(groups, key=lambda r: min(min(kept[k]) for k in groups[r])):
        row_ids = sorted(groups[root])
        var_ids = np.array(sorted({v for k in row_ids for v in kept[k]}), dtype=np.int64)
        rows = np.zeros((len(row_ids), len(var_ids)), dtype=bool)
        for r, k in enumerate(row_ids):
            rows[r, np.searchsorted(var_ids, kept[k])] = True
        rows.flags.writeable = False
        components.append(_Component(var_ids, rows))
    return ReducedCovering(n_vars, forced, tuple(components))


def solve_reduced(
    reduced: ReducedCovering,
    objective: np.ndarray,
    *,
    max_pivots: int | None = None,
) -> LpSolution:
    """Optimal basic solution of a reduced covering LP for one objective vector.

    Deterministic under the fixed pivot rule.  When the pivot budget runs
    out, the best-so-far feasible point comes back with an
    ``iteration-limit`` status; a solution that leaves a row short of one
    comes back ``infeasible``.
    """
    c = np.asarray(objective, dtype=np.float64)
    x = np.zeros(reduced.n_vars, dtype=np.float64)
    x[c > 0.0] = 1.0
    if len(reduced.forced_ones):
        x[reduced.forced_ones] = 1.0

    status = STATUS_OPTIMAL
    pivots = 0
    for comp in reduced.components:
        free = x[comp.var_ids] < 0.5
        open_rows = ~comp.rows[:, ~free].any(axis=1)
        if not open_rows.any():
            continue
        R = comp.rows[np.ix_(open_rows, free)]
        local_c = c[comp.var_ids[free]]
        # variables with identical row support are interchangeable: keep the
        # first best-coefficient one (exactness-preserving, and duplicate
        # columns would make simplex bases singular); variables in no open
        # row have cost <= 0 and stay at zero
        order = np.lexsort((-local_c, *R))
        grouped = R[:, order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (grouped[:, 1:] != grouped[:, :-1]).any(axis=0)
        keep = order[first & grouped.any(axis=0)]
        keep.sort()
        R, solver_c = R[:, keep], local_c[keep]

        x0 = _greedy_local(R, solver_c)
        try:
            xs, st, piv = _simplex_bounded(R, solver_c, x0, max_pivots)
        except _NumericalTrouble as trouble:
            # restart conservatively with aggressive refactorization
            log.warning("restarting simplex in safe mode (%s)", trouble)
            try:
                xs, st, piv = _simplex_bounded(R, solver_c, x0, max_pivots, safe=True)
            except _NumericalTrouble:
                # degrade honestly: the greedy cover is feasible
                log.error("simplex failed twice; returning the greedy cover")
                xs, st, piv = x0, STATUS_ITERATION_LIMIT, 0
        pivots += piv
        if st != STATUS_OPTIMAL:
            status = st
        local_x = np.zeros(len(local_c))
        local_x[keep] = xs
        x[comp.var_ids[free]] = local_x

    np.clip(x, 0.0, 1.0, out=x)
    worst = max((1.0 - float((comp.rows @ x[comp.var_ids]).min())
                 for comp in reduced.components), default=0.0)
    if worst > FEAS_TOL:
        log.error("covering residual %.3e exceeds tolerance", worst)
        status = STATUS_INFEASIBLE
    return LpSolution(x, float(np.dot(c, x)), status, pivots)


def _greedy_local(R: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Binary cover of the bool rows ``R``: each row not yet covered takes its
    best-coefficient variable, the lowest index on ties."""
    x = np.zeros(len(c), dtype=np.float64)
    for row in R:
        if not (x[row] > 0.5).any():
            members = np.flatnonzero(row)
            x[members[np.argmax(c[members])]] = 1.0
    return x


# ---------------------------------------------------------------------------
# primal revised simplex on 0/1-row covering components with variable bounds


class _NumericalTrouble(RuntimeError):
    """Basis factorization lost; the caller should restart conservatively."""


def _simplex_bounded(
    R: np.ndarray,
    c: np.ndarray,
    x0: np.ndarray,
    max_pivots: int | None,
    safe: bool = False,
) -> tuple[np.ndarray, str, int]:
    """maximize c@x s.t. R x - s = 1, 0 <= x <= 1, s >= 0, warm-started at x0.

    ``R`` is the bool incidence of the open rows over the kept columns.

    The surplus columns form the initial basis (B = -I), so the binary warm
    start is immediately basic-feasible.  Entering columns are priced with
    Dantzig's rule (largest reduced-cost magnitude, lowest index on ties);
    after a degenerate stall the rule drops to Bland's to guarantee
    termination.  The leaving choice prefers the largest pivot magnitude
    among tied blockers, which keeps the basis well conditioned on heavily
    degenerate covering instances; ``safe`` mode additionally refactorizes
    aggressively and demands bigger pivots.
    """
    R = R.astype(np.float64)
    m, n = R.shape

    ncol = n + m
    cost = np.concatenate([c, np.zeros(m)])
    upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
    x = np.concatenate([x0, R @ x0 - 1.0])
    basis = np.arange(n, ncol)
    in_basis = np.zeros(ncol, dtype=bool)
    in_basis[basis] = True
    at_upper = np.concatenate([x0 > 0.5, np.zeros(m, dtype=bool)])
    B_inv = -np.eye(m)

    if max_pivots is None:
        # size-proportional budget, clipped so one pathological component
        # cannot burn minutes (each pivot costs about m * (m + n) flops)
        max_pivots = min(30 * (m + n) + 500, max(2000, int(4e9 / (m * (m + n) + 1))))
    # safe mode refactorizes every pivot: the ratio test then always sees
    # exact numbers and accepted pivots keep the basis nonsingular
    refactor_every = 1 if safe else 64
    stall, bland = 0, safe
    pivots = 0
    fresh = True  # whether B_inv comes straight from a factorization
    # objective-progress watchdog: near-degenerate plateaus can creep in
    # steps too large for a step-size stall test yet too small to progress;
    # compare the true objective between checkpoints, not claimed gains
    checkpoint_obj = float(cost[:n] @ x[:n])
    window_count = 0
    while pivots < max_pivots:
        y = B_inv.T @ cost[basis]
        d = np.concatenate([c - R.T @ y, y])
        up = (~in_basis) & (~at_upper) & (d > OPT_TOL)
        down = (~in_basis) & at_upper & (d < -OPT_TOL)
        if not (up.any() or down.any()):
            return x[:n], STATUS_OPTIMAL, pivots
        score = np.where(up, d, np.where(down, -d, -np.inf))
        if not fresh and float(score.max()) < GHOST_TOL:
            # marginal candidates on a drifted inverse are usually noise;
            # decide on exact numbers
            B_inv, x = _refactorize(R, basis, x, n, m)
            fresh = True
            continue
        if bland:
            enter = int(np.flatnonzero(up | down)[0])
        else:
            enter = int(np.argmax(score))
        direction = -1.0 if at_upper[enter] else 1.0

        col = R[:, enter] if enter < n else -_unit(m, enter - n)
        w = B_inv @ col
        dw = direction * w
        xb = x[basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_dec = np.where(dw > PIV_TOL, xb / dw, np.inf)
            room = upper[basis] - xb
            t_inc = np.where(dw < -PIV_TOL, room / (-dw), np.inf)
        t_basic = np.minimum(t_dec, t_inc)
        t_bound = 1.0 if enter < n else np.inf
        t_min_basic = float(t_basic.min()) if m else np.inf
        t_star = min(t_bound, t_min_basic)
        if not np.isfinite(t_star):
            raise RuntimeError("unbounded direction in bounded covering LP")

        pivots += 1
        if t_bound <= t_min_basic + 1e-12:
            # bound flip, basis unchanged
            x[basis] = xb - dw * t_bound
            x[enter] = 0.0 if at_upper[enter] else 1.0
            at_upper[enter] = ~at_upper[enter]
        else:
            ties = np.flatnonzero(t_basic <= t_star + 1e-12)
            if bland:
                leave_pos = int(ties[np.argmin(basis[ties])])
            else:
                # two-pass ratio test: stability first, index to break ties
                mags = np.abs(dw[ties])
                best = mags.max()
                stable = ties[mags >= best - 1e-12]
                leave_pos = int(stable[np.argmin(basis[stable])])
            if abs(w[leave_pos]) < GHOST_TOL and not fresh:
                B_inv, x = _refactorize(R, basis, x, n, m)
                fresh = True
                continue  # reprice with exact numbers before pivoting
            leaving = int(basis[leave_pos])
            x[basis] = xb - dw * t_star
            x[enter] = (1.0 - t_star) if at_upper[enter] else t_star
            hit_lower = dw[leave_pos] > 0
            x[leaving] = 0.0 if hit_lower else upper[leaving]
            at_upper[leaving] = not hit_lower
            at_upper[enter] = False
            basis[leave_pos] = enter
            in_basis[leaving] = False
            in_basis[enter] = True
            pivrow = B_inv[leave_pos] / w[leave_pos]
            B_inv -= np.outer(w, pivrow)
            B_inv[leave_pos] = pivrow
            fresh = False
            if pivots % refactor_every == 0:
                B_inv, x = _refactorize(R, basis, x, n, m)
                fresh = True

        window_count += 1
        if window_count >= 128:
            obj_now = float(cost[:n] @ x[:n])
            if obj_now - checkpoint_obj <= 1e-9 * (1.0 + abs(obj_now)):
                # a whole window without real progress: drop to Bland
                # pivoting on tightly refactorized numbers
                bland = True
                refactor_every = 8
                B_inv, x = _refactorize(R, basis, x, n, m)
                fresh = True
            checkpoint_obj = obj_now
            window_count = 0

        if t_star > 1e-12:
            stall = 0
        else:
            stall += 1
            if stall >= 64:
                bland = True

    log.warning("simplex pivot budget exhausted (%d pivots)", pivots)
    return x[:n], STATUS_ITERATION_LIMIT, pivots


def _unit(m: int, k: int) -> np.ndarray:
    e = np.zeros(m)
    e[k] = 1.0
    return e


def _refactorize(R, basis, x, n, m):
    B = np.empty((m, m))
    for pos, j in enumerate(basis):
        B[:, pos] = R[:, j] if j < n else -_unit(m, j - n)
    try:
        B_inv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise _NumericalTrouble("singular basis during refactorization") from exc
    nonbasic_struct = np.ones(n, dtype=bool)
    nonbasic_struct[basis[basis < n]] = False
    xs = np.where(nonbasic_struct, x[:n], 0.0)
    rhs = np.ones(m) - R @ xs
    x = x.copy()
    x[basis] = B_inv @ rhs
    return B_inv, x


def dump_problem(objective: np.ndarray, row_ptr: np.ndarray, cols: np.ndarray,
                 path: str | Path) -> None:
    """Write the LP over the CSR covering rows in the conventional text form."""
    c = np.asarray(objective, dtype=np.float64)
    flat = np.asarray(cols).tolist()
    ptr = np.asarray(row_ptr).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("Maximize\n obj:")
        for v in range(len(c)):
            fh.write(f" {c[v]:+.17g} x{v}")
            if (v + 1) % 8 == 0:
                fh.write("\n     ")
        fh.write("\nSubject To\n")
        for r, (a, b) in enumerate(zip(ptr, ptr[1:])):
            terms = " + ".join(f"x{v}" for v in flat[a:b])
            fh.write(f" r{r}: {terms} >= 1\n")
        fh.write("Bounds\n")
        for v in range(len(c)):
            fh.write(f" 0 <= x{v} <= 1\n")
        fh.write("End\n")
