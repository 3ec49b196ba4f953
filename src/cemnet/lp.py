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
flat arrays in component order holding the pinning, the open rows, each
variable's identical-column group and the last certified bases (kept
columns, x, bound signs and the rows of the basis inverse at the
structural basic positions).  A call rebuilds the open rows and groups of
the components whose pinning changed and splices the bases it solved into
the store; a component that pivots cuts its matrix from the reduction's
incidence.  One test, ``_certified``, decides that a basis is optimal: the
duals and reduced costs summed from the stored inverse rows must have the
signs of an optimal basis (dual feasibility, see Koberstein 2005, *The
dual simplex method*).  A cold solve's final basis passes it, after one
fresh inverse, before it is stored, and a stored basis passes it for the
next objective before its x is reused.  That check runs for all
components at once, so only the components that must pivot, or whose
pinning changed, are visited one by one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

log = logging.getLogger("cemnet.lp")

FEAS_TOL = 1e-9  # constraint satisfaction
PIV_TOL = 1e-9  # smallest pivot element the ratio test accepts
DUAL_TOL = 1e-9  # reduced-cost sign slack, relative to the largest cost
# entries per block of the passes over every component row or stored
# basis: keeps their per-entry temporaries near 2 MB
BLOCK_SLOTS = 1 << 18

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
    var_ids: np.ndarray  # global variable ids, ascending: a view of ReducedCovering.var_ids
    rows: np.ndarray  # bool incidence, kept rows x len(var_ids), read-only


@dataclass(frozen=True)
class ReducedCovering:
    n_vars: int
    forced_ones: np.ndarray  # variables pinned to 1 by singleton rows
    components: tuple[_Component, ...]
    # every component's var_ids, concatenated: component k owns
    # var_ids[var_ptr[k]:var_ptr[k + 1]]
    var_ids: np.ndarray
    var_ptr: np.ndarray
    # every component row as one CSR over global variable ids; component k
    # owns rows comp_rows[k]:comp_rows[k + 1]
    row_ptr: np.ndarray
    row_cols: np.ndarray
    comp_rows: np.ndarray

    @cached_property
    def blocks(self) -> list[tuple[int, int]]:
        """The component rows as ``(first, end)`` runs of whole components, cut by slots."""
        rows = self.comp_rows.tolist()
        return [(rows[a], rows[b]) for a, b in _runs(self.row_ptr[self.comp_rows])]


def _runs(at: np.ndarray) -> list[tuple[int, int]]:
    """``(first, end)`` runs of the items whose entries start at ``at[:-1]``
    (ends at ``at[1:]``), each of at most ``BLOCK_SLOTS`` entries unless one item has more."""
    cuts = [0]
    while cuts[-1] < len(at) - 1:
        k = int(np.searchsorted(at, at[cuts[-1]] + BLOCK_SLOTS, side="right")) - 1
        cuts.append(max(k, cuts[-1] + 1))
    return list(zip(cuts[:-1], cuts[1:]))


def _concat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate([np.zeros(0, dtype=dtype), *arrays])


def _ptr(sizes: list[int]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


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

    pieces = []
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
            pieces.append((var_ids[used], comp_rows))
    pieces.sort(key=lambda piece: piece[0][0])
    var_ptr = _ptr([len(ids) for ids, _ in pieces])
    var_ids = _concat([ids for ids, _ in pieces], np.int64)
    var_ids.flags.writeable = False
    components = tuple(_Component(var_ids[lo:hi], rows) for (_, rows), lo, hi
                       in zip(pieces, var_ptr[:-1].tolist(), var_ptr[1:].tolist()))
    del pieces
    comp_rows = _ptr([len(comp.rows) for comp in components])
    row_ptr = _ptr(_concat([comp.rows.sum(axis=1) for comp in components], np.int64))
    row_cols = np.empty(row_ptr[-1], dtype=np.int64)
    for comp, lo, hi in zip(components, row_ptr[comp_rows[:-1]], row_ptr[comp_rows[1:]]):
        row_cols[lo:hi] = np.broadcast_to(comp.var_ids, comp.rows.shape)[comp.rows]
    return ReducedCovering(n_vars, forced, components, var_ids, var_ptr,
                           row_ptr, row_cols, comp_rows)


def _columns(comp: _Component, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The component's open rows under one pinning, as a mask over its rows,
    and the identical-column group of each of its variables: the global id
    of the group's lowest-index column, so labels of different components
    never clash, or -1 for a variable that is pinned or in no open row."""
    open_rows = ~comp.rows[:, ~free].any(axis=1)
    group = np.full(len(free), -1, dtype=np.int64)
    if open_rows.any():
        cols = np.flatnonzero(free)
        # each free column's open rows as bytes: identical columns, equal bytes
        packed = np.ascontiguousarray(np.packbits(comp.rows[open_rows][:, free], axis=0).T)
        _, first, inv = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                  return_index=True, return_inverse=True)
        group[cols] = np.where(packed.any(axis=1), comp.var_ids[cols[first]][inv], -1)
    return open_rows, group


@dataclass(frozen=True)
class _Columns:
    """Every component's free columns under one pinning, as flags over the
    component variables ``reduced.var_ids``."""

    group: np.ndarray  # identical-column group per variable, as _columns labels it
    alone: np.ndarray  # bool per variable: the only one of its group
    # the variables of the groups with several, group by group, each in
    # variable order: group g owns tied[tied_ptr[g]:tied_ptr[g + 1]]
    tied: np.ndarray
    tied_ptr: np.ndarray

    @classmethod
    def of(cls, group: np.ndarray, reduced: ReducedCovering) -> _Columns:
        count = np.bincount(group + 1, minlength=reduced.n_vars + 1)  # count[0]: in no group
        members = np.where(group >= 0, count[group + 1], 0)
        size = count[1:]
        tied = np.flatnonzero(members > 1)
        return cls(group, members == 1, tied[np.argsort(group[tied], kind="stable")],
                   _ptr(size[size > 1]))

    def kept(self, c: np.ndarray, var_ids: np.ndarray) -> np.ndarray:
        """The columns the simplex sees under ``c``, as a mask over ``var_ids``.

        Variables with identical row support are interchangeable: keep the
        first best-coefficient one (exactness-preserving, and duplicate
        columns would make simplex bases singular); variables in no open
        row have cost <= 0 and stay at zero.
        """
        kept = self.alone.copy()
        c_tied = c[var_ids[self.tied]]
        best = np.maximum.reduceat(c_tied, self.tied_ptr[:-1])
        top = np.flatnonzero(c_tied == np.repeat(best, np.diff(self.tied_ptr)))
        kept[self.tied[top[np.searchsorted(top, self.tied_ptr[:-1])]]] = True
        return kept


# the per-entry arrays of ``_Bases``, with their dtypes, by the pointer
# that cuts them into bases
_SEGMENTS = {"col_ptr": {"ids": np.int64, "xs": np.float64, "sign": np.float64},
             "row_ptr": {"rows": np.int64, "row_sign": np.float64},
             "y_ptr": {"y_row": np.int64, "y_var": np.int64, "y_val": np.float64}}


@dataclass(frozen=True)
class _Bases:
    """Final bases of the simplex, at most one per component, concatenated
    in component order.

    A basis's columns are the kept columns the simplex saw and its rows the
    open rows.  Its inverse entries are the rows of the basis inverse at the
    structural basic positions, so that the duals are
    ``y[y_row] += y_val * -c[y_var]``.
    """

    comp: np.ndarray  # component per basis, ascending
    col_ptr: np.ndarray  # basis b owns kept columns col_ptr[b]:col_ptr[b + 1],
    row_ptr: np.ndarray  # open rows row_ptr[b]:row_ptr[b + 1]
    y_ptr: np.ndarray  # and inverse entries y_ptr[b]:y_ptr[b + 1]
    ids: np.ndarray  # global id per kept column
    xs: np.ndarray  # x per kept column
    sign: np.ndarray  # per kept column: 1 at its lower bound, -1 at its upper, 0 basic
    rows: np.ndarray  # global id per open row
    row_sign: np.ndarray  # per open row: 1 if its surplus is nonbasic, else 0
    y_row: np.ndarray
    y_var: np.ndarray
    y_val: np.ndarray

    @classmethod
    def of(cls, comp: list[int], parts: list[dict[str, np.ndarray]]) -> _Bases:
        """The bases ``parts`` of the components ``comp``, each a dict of the
        per-entry arrays of one basis."""
        flat = {}
        for ptr, names in _SEGMENTS.items():
            flat[ptr] = _ptr([len(p[next(iter(names))]) for p in parts])
            flat.update((name, _concat([p[name] for p in parts], dtype))
                        for name, dtype in names.items())
        return cls(np.array(comp, dtype=np.int64), **flat)

    def merge(self, keep: np.ndarray, other: _Bases, other_keep: np.ndarray) -> _Bases:
        """The bases ``keep`` marks here and those ``other_keep`` marks in
        ``other``, of distinct components, in component order."""
        if not keep.any() and other_keep.all():
            return other  # as it is, with no copy
        # number other's bases on after these; pick the kept ones by component
        n = len(self.comp)
        pick = np.concatenate([np.flatnonzero(keep), n + np.flatnonzero(other_keep)])
        comp = np.concatenate([self.comp, other.comp])[pick]
        pick = pick[np.argsort(comp)]
        # runs of picked bases that lie next to each other in one store
        head = (np.diff(pick, prepend=-2) != 1) | (pick == n)
        first, in_other = pick[head], pick[head] >= n
        end = first + np.diff(np.flatnonzero(np.append(head, True)))
        flat = {}
        for ptr, names in _SEGMENTS.items():
            a, b = getattr(self, ptr), getattr(other, ptr)
            starts = np.concatenate([a, a[-1] + b[1:]])  # of both stores' bases, one numbering
            flat[ptr] = _ptr(np.diff(starts)[pick])
            lo, hi = starts[first] - a[-1] * in_other, starts[end] - a[-1] * in_other
            runs = list(zip(in_other.tolist(), lo.tolist(), hi.tolist()))
            for name, dtype in names.items():
                both = getattr(self, name), getattr(other, name)
                flat[name] = _concat([both[s][lo:hi] for s, lo, hi in runs], dtype)
        return _Bases(np.sort(comp), **flat)


@dataclass(frozen=True)
class WarmStart:
    """The state one ``solve_reduced`` call hands the next, as flat arrays
    in component order: the pinning, the open rows, the identical-column
    groups and the certified bases."""

    reduced: ReducedCovering
    free: np.ndarray  # bool over reduced.var_ids: the pinning of the rest
    open_rows: np.ndarray  # bool over the component rows: none of its variables pinned
    columns: _Columns
    bases: _Bases


def _certified(bases: _Bases, c: np.ndarray, reduced: ReducedCovering) -> np.ndarray:
    """Per basis, whether it is dual feasible for ``c``: the optimality
    certificate.

    The duals are summed from the stored rows of each basis inverse, with
    zero on every row that is not open, and every nonbasic reduced cost
    must have the sign of an optimal basis, to within ``DUAL_TOL`` times the
    basis's largest kept cost: nonnegative at the lower bound and
    nonpositive at the upper one.  A basis that is primal feasible for the
    LP's rhs and passes is optimal.
    """
    # blocks of whole bases bound the temporaries; each row's terms are
    # added in store order, as by one pass
    runs = _runs(bases.y_ptr + bases.col_ptr + bases.row_ptr)
    y = np.zeros(len(reduced.row_ptr) - 1)
    for a, b in runs:
        e = slice(bases.y_ptr[a], bases.y_ptr[b])
        np.add.at(y, bases.y_row[e], bases.y_val[e] * -c[bases.y_var[e]])
    # a variable's terms all lie in its component's rows, so block by block
    # they are summed in row order, as by one pass; a block of zero duals adds nothing
    r_y = np.zeros(reduced.n_vars)
    for lo, hi in reduced.blocks:
        if y[lo:hi].any():
            ptr = reduced.row_ptr[lo:hi + 1]
            np.add.at(r_y, reduced.row_cols[ptr[0]:ptr[-1]], np.repeat(y[lo:hi], np.diff(ptr)))
    ok = np.zeros(len(bases.comp), dtype=bool)
    for a, b in runs:
        cols = slice(bases.col_ptr[a], bases.col_ptr[b])
        rows = slice(bases.row_ptr[a], bases.row_ptr[b])
        cut = bases.col_ptr[a:b] - bases.col_ptr[a]
        cost = -c[bases.ids[cols]]  # as _dual_simplex minimizes
        d = cost - r_y[bases.ids[cols]]
        tol = DUAL_TOL * np.maximum(1.0, np.maximum.reduceat(np.abs(cost), cut))
        # a surplus column's reduced cost is its row's dual
        worst = np.minimum(np.minimum.reduceat(bases.sign[cols] * d, cut),
                           np.minimum.reduceat(bases.row_sign[rows] * y[bases.rows[rows]],
                                               bases.row_ptr[a:b] - bases.row_ptr[a]))
        ok[a:b] = worst >= -tol
    return ok


def _reusable(bases: _Bases, kept: np.ndarray, c: np.ndarray,
              reduced: ReducedCovering) -> np.ndarray:
    """Per component: it has a stored basis over the kept columns ``kept``
    marks in ``reduced.var_ids``, and that basis passes ``_certified`` for ``c``."""
    ok = np.zeros(len(reduced.components), dtype=bool)
    if len(bases.comp):
        now = np.zeros(reduced.n_vars, dtype=bool)
        now[reduced.var_ids[kept]] = True
        # as many kept columns as the basis has, and each of its columns kept
        width = np.add.reduceat(kept, reduced.var_ptr[:-1], dtype=np.int64)[bases.comp]
        same = (width == np.diff(bases.col_ptr)) \
            & np.logical_and.reduceat(now[bases.ids], bases.col_ptr[:-1])
        ok[bases.comp] = same & _certified(bases, c, reduced)
    return ok


def solve_reduced(
    reduced: ReducedCovering,
    objective: np.ndarray,
    *,
    warm: WarmStart | None = None,
) -> LpSolution:
    """Optimal basic solution of a reduced covering LP for one objective vector.

    Deterministic under the fixed pivot rule.  ``warm`` is the ``warm`` of
    an earlier solution on the same reduction: a component whose pinned
    variables and kept columns are unchanged returns its previous x when
    the previous basis passes ``_certified`` for this objective; the basis
    and the rhs are those of that x, so it is the x a cold solve ending on
    that basis returns.  A cold solve's final basis passes the same
    ``_certified`` test before it is kept.  When a component's pivot
    budget runs out, or its final basis is singular or fails that test,
    that component takes the greedy cover and the status is
    ``iteration-limit``; a solution that leaves a row short of one comes
    back ``infeasible``.
    """
    if warm is not None and warm.reduced is not reduced:
        raise ValueError("warm state comes from another reduction")
    c = np.asarray(objective, dtype=np.float64)
    # every free column then has c <= 0, which the dual simplex's start
    # needs; a zero-cost column stays free, as 0 and 1 tie there
    x = (c > 0.0).astype(np.float64)
    x[reduced.forced_ones] = 1.0

    comps, var_ptr, comp_rows = reduced.components, reduced.var_ptr, reduced.comp_rows
    free = x[reduced.var_ids] < 0.5
    if warm is None:  # a state whose pinning differs in every component
        warm = WarmStart(reduced, ~free, np.zeros(comp_rows[-1], dtype=bool),
                         _Columns.of(np.full(len(free), -1), reduced), _Bases.of([], []))
    stale = np.logical_or.reduceat(free != warm.free, var_ptr[:-1])
    open_rows, cols, bases = warm.open_rows, warm.columns, warm.bases
    if stale.any():
        open_rows, group = open_rows.copy(), cols.group.copy()
        for k in np.flatnonzero(stale).tolist():
            open_rows[comp_rows[k]:comp_rows[k + 1]], group[var_ptr[k]:var_ptr[k + 1]] = \
                _columns(comps[k], free[var_ptr[k]:var_ptr[k + 1]])
        cols = _Columns.of(group, reduced)
    opened = np.logical_or.reduceat(open_rows, comp_rows[:-1])
    kept = cols.kept(c, reduced.var_ids)
    reused = ~stale & _reusable(bases, kept, c, reduced)
    # one assignment writes the stored x of every reused component
    take = np.repeat(reused[bases.comp], np.diff(bases.col_ptr))
    x[bases.ids[take]] = bases.xs[take]

    def kept_problem(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the kept columns, the global ids of the open rows, and their incidence
        keep, open_k = kept[var_ptr[k]:var_ptr[k + 1]], open_rows[comp_rows[k]:comp_rows[k + 1]]
        return (comps[k].var_ids[keep], comp_rows[k] + np.flatnonzero(open_k),
                comps[k].rows[open_k][:, keep])

    pivots = 0
    cold = opened & ~reused
    solved, parts, failed = [], [], []
    for k in np.flatnonzero(cold).tolist():
        ids, rows, R = kept_problem(k)
        xs, piv, final = _dual_simplex(R, c[ids])
        pivots += piv
        if final is None:
            failed.append(k)
            continue
        xs = np.clip(xs, 0.0, 1.0)  # rounding can leave a basic x just outside its box
        x[ids] = xs
        solved.append(k)
        sign, row_sign, basic, inv = final
        parts.append(dict(ids=ids, xs=xs, sign=sign, rows=rows, row_sign=row_sign,
                          y_row=np.tile(rows, len(basic)), y_var=np.repeat(ids[basic], len(rows)),
                          y_val=inv.ravel()))
    if stale.any() or cold.any():
        new = _Bases.of(solved, parts)
        del parts  # ``new`` holds copies: free these before the merge
        ok = _certified(new, c, reduced) if solved else np.zeros(0, dtype=bool)
        for k in new.comp[~ok].tolist():
            log.warning("component %d: final basis fails the optimality check", k)
            failed.append(k)
        bases = bases.merge(~(stale | cold)[bases.comp], new, ok)
    status = STATUS_ITERATION_LIMIT if failed else STATUS_OPTIMAL
    for k in failed:
        # degrade honestly: the greedy cover is feasible
        log.warning("returning the greedy cover")
        ids, _, R = kept_problem(k)
        x[ids] = _greedy_local(R, c[ids])

    low = 1.0  # the smallest row sum, or NaN
    for lo, hi in reduced.blocks:
        ptr = reduced.row_ptr[lo:hi + 1]
        row_sums = np.add.reduceat(x[reduced.row_cols[ptr[0]:ptr[-1]]], ptr[:-1] - ptr[0])
        low = np.minimum(low, row_sums.min())
    worst = 1.0 - float(low)
    if worst > FEAS_TOL:
        log.error("covering residual %.3e exceeds tolerance", worst)
        status = STATUS_INFEASIBLE
    return LpSolution(x, float(np.dot(c, x)), status, pivots, int(opened.sum()),
                      int(reused.sum()), WarmStart(reduced, free, open_rows, cols, bases))


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


def _pivot_budget(m: int, n: int) -> int:
    """Pivots ``_dual_simplex`` may take on ``m`` open rows and ``n`` kept
    columns: proportional to the size, clipped so one pathological
    component cannot burn minutes (each pivot costs about m * (m + n) flops)."""
    return min(30 * (m + n) + 500, max(2000, int(4e9 / (m * (m + n) + 1))))


def _dual_simplex(
    R: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray | None, int, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """maximize c@x s.t. R x - s = 1, 0 <= x <= 1, s >= 0, for c <= 0.

    ``R`` is the bool incidence of the open rows over the kept columns.

    The surplus columns form the initial basis (B = -I) at x = 0, which is
    dual feasible because no cost is positive, so the dual simplex needs no
    phase one.  Bland's rule picks both variables, which guarantees
    termination on degenerate covering instances: the primal-infeasible
    basic variable with the smallest column index leaves, and the minimum
    dual ratio enters, the smallest column index on ties.  The optimal x
    comes from one solve on the final basis, so its bits depend on that
    basis alone.  Returns ``(x, pivots, final)``, with ``final`` the final
    basis as ``_Bases`` stores it: the signs of the columns and of the
    surpluses, the structural basic columns, and the rows at their
    positions of a fresh inverse of the basis matrix, for the optimality
    certificate that does not rest on the updated inverse that chose the
    pivots.  x and ``final`` are None when the pivot budget
    (``_pivot_budget``) runs out or the final basis is singular.
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

    budget = _pivot_budget(m, n)
    pivots = 0
    while True:
        rhs = 1.0 - R @ at_upper[:n]
        xb = B_inv @ rhs
        high = xb > upper[basis] + FEAS_TOL
        short = (xb < -FEAS_TOL) | high
        if not short.any():
            break
        if pivots == budget:
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
        B_inv = np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError:
        log.warning("singular final basis after %d pivots", pivots)
        return None, pivots, None
    structural = np.flatnonzero(basis < n)
    sign = np.where(nonbasic[:n], np.where(at_upper[:n], -1.0, 1.0), 0.0)
    return x[:n], pivots, (sign, nonbasic[n:] * 1.0, basis[structural], B_inv[structural])


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
