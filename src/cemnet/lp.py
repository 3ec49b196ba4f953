"""Box-constrained covering LPs and a bounded-variable dual simplex.

The sigma subproblem maximizes a linear objective over ``[0, 1]^P``
intersected with covering rows ``sum_{v in row} x_v >= 1``.  All constraint
coefficients are +1, which permits an exactness-preserving reduction before
pivoting: variables with positive objective go to their upper bound,
singleton rows force their variable to one, and duplicate and superset rows
are redundant.  Rows of different reshare targets share no variable, so the
rest is reduced on one bool incidence matrix per target and split into
independent components, each held as a dense bool incidence matrix.  Per
objective, every component's open rows and free columns are solved with a
dual simplex on the bounded variables under Bland's rule, started from the
all-surplus basis, which no remaining positive cost leaves dual infeasible;
the result must cover every component row to within ``FEAS_TOL``.

Consecutive EM objectives mostly pin the same variables and leave the same
basis optimal, so each solution carries a ``WarmStart`` for the next call:
per component, the open rows, free columns and identical-column groups
(rebuilt only when the pinned set changes), and the last kept columns,
final basis and x.  A basis is accepted, warm or at the end of a cold
solve, only when a fresh solve with it gives reduced costs of an optimal
basis (the dual-feasibility certificate, see Koberstein 2005, *The dual
simplex method*).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger("cemnet.lp")

FEAS_TOL = 1e-9  # constraint satisfaction
PIV_TOL = 1e-9  # smallest pivot element the ratio test accepts
DUAL_TOL = 1e-9  # reduced-cost sign slack, relative to the largest cost

STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_LIMIT = "iteration-limit"
STATUS_INFEASIBLE = "infeasible"  # a row left short of one: numerical failure


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    status: str
    n_pivots: int = 0
    n_solved: int = 0  # components with open rows
    n_reused: int = 0  # of those, solved by the previous call's basis
    warm: WarmStart | None = field(default=None, repr=False)  # for the next call


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


def reduce_covering(n_vars: int, row_ptr: np.ndarray, cols: np.ndarray,
                    targets: np.ndarray) -> ReducedCovering:
    """Objective-independent reduction of the CSR covering rows ``(row_ptr, cols)``.

    Row ``r`` belongs to reshare target ``targets[r]``.  A variable may appear
    under one target only, so rows of different targets never interact, and
    each target's live rows reduce on their own bool incidence matrix.  A
    variable under two targets in live rows (rows that no forced variable
    covers) raises ``ValueError``.
    """
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    cols = np.asarray(cols)
    targets = np.asarray(targets, dtype=np.int64)
    lens = np.diff(row_ptr)
    if len(targets) != len(lens):
        raise ValueError(f"{len(targets)} targets for {len(lens)} covering rows")
    if np.any(lens < 1):
        raise ValueError("covering rows must not be empty")
    if len(cols) and (cols.min() < 0 or cols.max() >= n_vars):
        raise ValueError(f"variable id out of range 0..{n_vars - 1}")
    forced = np.unique(cols[row_ptr[:-1][lens == 1]]).astype(np.int64)

    # rows touching a forced variable are already covered
    pinned = np.zeros(n_vars, dtype=bool)
    pinned[forced] = True
    live = ~np.logical_or.reduceat(pinned[cols], row_ptr[:-1])
    # the live rows' slots, grouped by target
    rows = np.flatnonzero(live)
    rows = rows[np.argsort(targets[rows], kind="stable")]
    row_len = lens[rows]
    slot_ptr = np.concatenate([[0], np.cumsum(row_len)])
    var = cols[np.arange(slot_ptr[-1]) + np.repeat(row_ptr[rows] - slot_ptr[:-1], row_len)]
    slot_target = np.repeat(targets[rows], row_len)
    owner = np.empty(n_vars, dtype=np.int64)
    owner[var] = slot_target
    clash = np.flatnonzero(owner[var] != slot_target)
    if len(clash):
        raise ValueError(f"variable {var[clash[0]]} appears under two targets")
    bounds = np.r_[np.unique(targets[rows], return_index=True)[1], len(rows)]
    # each slot's row within its target
    slot_row = np.repeat(np.arange(len(rows)) - np.repeat(bounds[:-1], np.diff(bounds)), row_len)

    components = []
    for lo, hi in zip(slot_ptr[bounds[:-1]].tolist(), slot_ptr[bounds[1:]].tolist()):
        var_ids, col = np.unique(var[lo:hi], return_inverse=True)
        R = np.zeros((slot_row[hi - 1] + 1, len(var_ids)), dtype=bool)
        R[slot_row[lo:hi], col] = True
        # distinct rows in (length, lexicographic) order: of two rows of one
        # length, the one holding the first variable where they differ comes
        # first, as in the byte order of packed ~R behind a big-endian length
        n = R.sum(axis=1)
        key = np.hstack([n.astype(">u8").view(np.uint8).reshape(-1, 8),
                         np.packbits(~R, axis=1)])
        _, first = np.unique(key.view(f"V{key.shape[1]}").ravel(), return_index=True)
        R, n = R[first], n[first]
        # a superset row is implied by its subset: a <= b iff shared[a, b] == |a|
        F = R.astype(np.float64)
        shared = F @ F.T  # exact: integer counts far below 2**53
        keep = (shared == n[:, None]).sum(axis=0) == 1
        R, overlap = R[keep], shared[np.ix_(keep, keep)] > 0
        # components: each row takes the smallest label of the rows it overlaps
        label = np.arange(len(R))
        while True:
            nearest = np.where(overlap, label, len(R)).min(axis=1)
            if np.array_equal(nearest, label):
                break
            label = nearest
        for root in np.unique(label):
            comp_rows = R[label == root]
            used = comp_rows.any(axis=0)
            comp_rows = comp_rows[:, used]
            comp_rows.flags.writeable = False
            components.append(_Component(var_ids[used].astype(np.int64), comp_rows))
    components.sort(key=lambda comp: comp.var_ids[0])
    return ReducedCovering(n_vars, forced, tuple(components))


@dataclass(frozen=True)
class _Warm:
    """One component after a ``solve_reduced`` call.

    ``free`` to ``gid`` depend only on which variables were pinned; the
    rest is the last solve on them, with no basis after a fallback.
    """

    free: np.ndarray  # bool over the component's variables
    free_ids: np.ndarray  # global ids of the free variables
    R: np.ndarray  # bool incidence, open rows x free columns
    gid: np.ndarray  # identical-column group per free column, -1 in no open row
    keep: np.ndarray | None = None  # the columns of R the simplex saw
    R_keep: np.ndarray | None = None  # R[:, keep]
    basis: tuple[np.ndarray, np.ndarray] | None = None  # final (basis, at_upper)
    xs: np.ndarray | None = None  # x over keep


@dataclass(frozen=True)
class WarmStart:
    """Per-component state that one ``solve_reduced`` call hands the next."""

    reduced: ReducedCovering
    components: tuple[_Warm, ...]


def _columns(comp: _Component, free: np.ndarray) -> _Warm:
    """Open rows, free columns and identical-column groups under one pinning."""
    open_rows = ~comp.rows[:, ~free].any(axis=1)
    R = comp.rows[np.ix_(open_rows, free)]
    gid = np.full(R.shape[1], -1, dtype=np.int64)
    if len(R):
        order = np.lexsort(R)
        grouped = R[:, order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (grouped[:, 1:] != grouped[:, :-1]).any(axis=0)
        gid[order] = np.cumsum(first) - 1
        gid[~R.any(axis=0)] = -1
    return _Warm(free, comp.var_ids[free], R, gid)


def solve_reduced(
    reduced: ReducedCovering,
    objective: np.ndarray,
    *,
    max_pivots: int | None = None,
    warm: WarmStart | None = None,
) -> LpSolution:
    """Optimal basic solution of a reduced covering LP for one objective vector.

    Deterministic under the fixed pivot rule.  ``warm`` is the ``warm`` of
    an earlier solution on the same reduction: a component whose pinned
    variables and kept columns are unchanged returns its previous x when
    the previous basis passes a fresh dual-feasibility check for this
    objective; the basis and the rhs are those of that x, so it is the x a
    cold solve ending on that basis returns.
    When a component's pivot budget runs out, or its final basis is
    singular or fails that check, that component takes the greedy cover
    and the status is ``iteration-limit``; a solution that leaves a row
    short of one comes back ``infeasible``.
    """
    if warm is not None and warm.reduced is not reduced:
        raise ValueError("warm state comes from another reduction")
    c = np.asarray(objective, dtype=np.float64)
    x = np.zeros(reduced.n_vars, dtype=np.float64)
    # every free column then has c <= 0, which the dual simplex's start
    # needs; a zero-cost column stays free, as 0 and 1 tie there
    x[c > 0.0] = 1.0
    if len(reduced.forced_ones):
        x[reduced.forced_ones] = 1.0

    status = STATUS_OPTIMAL
    pivots = solved = reused = 0
    states = []
    for k, comp in enumerate(reduced.components):
        free = x[comp.var_ids] < 0.5
        st = None if warm is None else warm.components[k]
        if st is None or not np.array_equal(st.free, free):
            st = _columns(comp, free)
        if not len(st.R):
            states.append(st)
            continue
        solved += 1
        local_c = c[st.free_ids]
        # variables with identical row support are interchangeable: keep the
        # first best-coefficient one (exactness-preserving, and duplicate
        # columns would make simplex bases singular); variables in no open
        # row have cost <= 0 and stay at zero
        order = np.lexsort((-local_c, st.gid))
        gid = st.gid[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = gid[1:] != gid[:-1]
        keep = np.sort(order[first & (gid >= 0)])
        solver_c = local_c[keep]

        if (st.basis is not None and np.array_equal(keep, st.keep)
                and _dual_feasible(st.R_keep, solver_c, *st.basis)):
            reused += 1
        else:
            R = st.R[:, keep]
            xs, piv, final = _dual_simplex(R, solver_c, max_pivots)
            pivots += piv
            if xs is None:
                # degrade honestly: the greedy cover is feasible
                log.warning("returning the greedy cover")
                xs = _greedy_local(R, solver_c)
                status = STATUS_ITERATION_LIMIT
            st = _Warm(st.free, st.free_ids, st.R, st.gid, keep, R, final, xs)
        states.append(st)
        x[st.free_ids[keep]] = st.xs

    np.clip(x, 0.0, 1.0, out=x)
    worst = max((1.0 - float((comp.rows @ x[comp.var_ids]).min())
                 for comp in reduced.components), default=0.0)
    if worst > FEAS_TOL:
        log.error("covering residual %.3e exceeds tolerance", worst)
        status = STATUS_INFEASIBLE
    return LpSolution(x, float(np.dot(c, x)), status, pivots, solved, reused,
                      WarmStart(reduced, tuple(states)))


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
# dual simplex on 0/1-row covering components with variable bounds


def _dual_simplex(
    R: np.ndarray, c: np.ndarray, max_pivots: int | None
) -> tuple[np.ndarray | None, int, tuple[np.ndarray, np.ndarray] | None]:
    """maximize c@x s.t. R x - s = 1, 0 <= x <= 1, s >= 0, for c <= 0.

    ``R`` is the bool incidence of the open rows over the kept columns.

    The surplus columns form the initial basis (B = -I) at x = 0, which is
    dual feasible because no cost is positive, so the dual simplex needs no
    phase one.  Bland's rule picks both variables, which guarantees
    termination on degenerate covering instances: the primal-infeasible
    basic variable with the smallest column index leaves, and the minimum
    dual ratio enters, the smallest column index on ties.  The optimal x
    comes from one solve on the final basis, so its bits depend on that
    basis alone.  Returns ``(x, pivots, (basis, at_upper))``; x and the
    basis are None when the pivot budget runs out, or the final basis is
    singular or fails ``_dual_feasible``, the optimality certificate that
    does not rest on the updated inverse that chose the pivots.
    """
    m, n = R.shape
    R = R.astype(np.float64)
    A = np.hstack([R, -np.eye(m)])
    cost = np.concatenate([-c, np.zeros(m)])  # minimize cost @ (x, s)
    upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
    basis = np.arange(n, n + m)
    nonbasic = np.ones(n + m, dtype=bool)
    nonbasic[basis] = False
    at_upper = np.zeros(n + m, dtype=bool)  # nonbasic structural at one
    B_inv = -np.eye(m)

    if max_pivots is None:
        # size-proportional budget, clipped so one pathological component
        # cannot burn minutes (each pivot costs about m * (m + n) flops)
        max_pivots = min(30 * (m + n) + 500, max(2000, int(4e9 / (m * (m + n) + 1))))
    pivots = 0
    while True:
        rhs = 1.0 - R @ at_upper[:n]
        xb = B_inv @ rhs
        high = xb > upper[basis] + FEAS_TOL
        short = (xb < -FEAS_TOL) | high
        if not short.any():
            break
        if pivots == max_pivots:
            log.warning("dual simplex pivot budget exhausted (%d pivots)", pivots)
            return None, pivots, None
        r = int(np.flatnonzero(short)[np.argmin(basis[short])])
        alpha = B_inv[r] @ A
        d = cost - (cost[basis] @ B_inv) @ A
        # columns whose move off their bound pushes basis[r] back into range
        toward = alpha if high[r] else -alpha
        eligible = nonbasic & (np.where(at_upper, -toward, toward) > PIV_TOL)
        if not eligible.any():
            # would prove that no cover exists, but x = 1 covers every row:
            # only rounding gets here
            log.warning("dual simplex found no entering column")
            return None, pivots, None
        cand = np.flatnonzero(eligible)
        ratio = np.abs(d[cand]) / np.abs(alpha[cand])
        enter = int(cand[np.argmax(ratio <= ratio.min() + 1e-12)])

        w = B_inv @ A[:, enter]
        pivrow = B_inv[r] / w[r]
        B_inv -= np.outer(w, pivrow)
        B_inv[r] = pivrow
        leaving = basis[r]
        nonbasic[leaving], at_upper[leaving] = True, bool(high[r])
        nonbasic[enter], at_upper[enter] = False, False
        basis[r] = enter
        pivots += 1

    x = np.concatenate([at_upper[:n].astype(np.float64), np.zeros(m)])
    try:
        x[basis] = np.linalg.solve(A[:, basis], rhs)
    except np.linalg.LinAlgError:
        log.warning("singular final basis after %d pivots", pivots)
        return None, pivots, None
    if not _dual_feasible(R, c, basis, at_upper):
        log.warning("final basis after %d pivots fails the optimality check", pivots)
        return None, pivots, None
    return x[:n], pivots, (basis, at_upper)


def _dual_feasible(R: np.ndarray, c: np.ndarray, basis: np.ndarray,
                   at_upper: np.ndarray) -> bool:
    """Whether ``basis`` is dual feasible for ``c`` in ``_dual_simplex``'s LP.

    The duals come from one fresh solve with the basis matrix, and every
    nonbasic reduced cost must have the sign of an optimal basis, to
    within ``DUAL_TOL`` times the largest cost: nonnegative at the lower
    bound and nonpositive at the upper one.  A basis that is primal
    feasible for the LP's rhs and passes is optimal.
    """
    m = len(R)
    A = np.hstack([R, -np.eye(m)])
    cost = np.concatenate([-c, np.zeros(m)])  # as _dual_simplex minimizes
    try:
        y = np.linalg.solve(A[:, basis].T, cost[basis])
    except np.linalg.LinAlgError:
        return False
    d = cost - y @ A
    d[basis] = 0.0  # basic columns are never at their upper bound
    tol = DUAL_TOL * max(1.0, float(np.abs(c).max()))
    return not np.where(at_upper, d > tol, d < -tol).any()


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
