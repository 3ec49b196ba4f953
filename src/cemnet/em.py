"""Constrained EM loop (CEM-er / CEM-sbm) over the active-pair table.

One iteration, in the listed order: posterior edge probabilities Q from the
previous parameters, then the parameter block, then the diffusion
probabilities sigma from the covering LP whose objective weight per pair is

    W_ij = M_ij * (Q_ij * log(a/(1-a)) + (1 - Q_ij) * log(b/(1-b)))

shifted by ``-lambda * max W``.  The LP objective deliberately uses the
*previous* iteration's utilization rates, matching the update schedule the
posterior derivation prescribes.  Under the block-model prior the group
labels are refreshed each iteration by thresholding Q at 0.5 and running
Louvain on the symmetrized result; when the thresholded edges equal the
previous iteration's, the previous labels are kept, which is exactly what
Louvain would return.  Each LP call likewise hands its per-component warm
state (``lp.WarmStart``) to the next iteration's; that state lives only in
the loop, so fits sharing one ``Preprocessed`` never see each other's.

Pairs that never co-occur are not materialized: their posterior equals the
prior, which enters the prior updates, the convergence norm, and the final
thresholding in closed form.

Q and W are elementwise in a pair's M, sigma and prior class (one class
under ER; same or cross block under SBM), so pairs that share all three
share Q and W bit for bit.  The LP's sigma is 0 or 1 almost everywhere, and
M takes few distinct values, so the E-step evaluates Q, and ``build_w`` W,
once per class of (M, sigma in {0, 1}, prior class) and takes the values to
the pairs.  Pairs with a fractional sigma are computed one by one.  The
M-step's sums stay over the pair vectors, so alpha, beta and the priors
keep their bits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import lp
from .community import louvain_graph, same_label_pairs
from .constraints import ConstraintSystem, build_constraints
from .graph import InferredGraph
from .trace import Episodes, PairTable, Trace, build_episodes, pair_counts

log = logging.getLogger("cemnet.em")

EPS_CLAMP = 1e-12

PRIOR_ER = "er"
PRIOR_SBM = "sbm"


def clamp(p: float) -> float:
    """Keep probabilities away from {0, 1}; the W logits diverge at the edges."""
    return min(max(float(p), EPS_CLAMP), 1.0 - EPS_CLAMP)


@dataclass
class ParamSet:
    prior: str  # "er" | "sbm"
    alpha: float
    beta: float
    rho: float | None = None  # ER edge prior
    p_in: float | None = None  # SBM intra-community prior
    q_out: float | None = None  # SBM inter-community prior
    lam: float = 1.0
    beta_fixed: float | None = None

    def prior_spec(self, groups: np.ndarray | None) -> tuple:
        """The prior as ``threshold_graph`` takes it: ``("er", rho)``, or
        ``("sbm", p, q, labels)`` with a copy of ``groups``."""
        if self.prior == PRIOR_ER:
            return (PRIOR_ER, self.rho)
        return (PRIOR_SBM, self.p_in, self.q_out, groups.copy())


@dataclass
class EmState:
    params: ParamSet
    table: PairTable
    groups: np.ndarray | None
    n_users: int
    iteration: int = 0
    delta_q: float = math.inf
    converged: bool = False
    # prior values that generated the current Q (implicit posterior of M=0 pairs)
    q_prior_used: tuple[float, ...] = field(default=())
    # the prior behind the current Q, as threshold_graph/score_matrix take it
    prior_spec: tuple = field(default=())

    def to_json(self) -> dict:
        out = {
            "prior": self.params.prior,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "lambda": self.params.lam,
            "iterations": self.iteration,
            "delta_q": self.delta_q if math.isfinite(self.delta_q) else None,
            "converged": self.converged,
        }
        if self.params.prior == PRIOR_ER:
            out["rho"] = self.params.rho
        else:
            out["p"] = self.params.p_in
            out["q"] = self.params.q_out
        if self.params.beta_fixed is not None:
            out["beta_fixed"] = self.params.beta_fixed
        return out


# ---------------------------------------------------------------------------
# E-step


def posterior(m: np.ndarray, ms: np.ndarray, prior_logit: np.ndarray | float,
              alpha: float, beta: float) -> np.ndarray:
    """Q = sigmoid(logit(prior) + ms log(a/b) + (m - ms) log((1-a)/(1-b))).

    ``m`` is the trial count and ``ms`` the expected success count of each
    pair: ``M * sigma`` for the constrained fits, the direct
    author-to-resharer count for the Newman baseline.
    """
    # in the order and with the roundings of
    # ms * log(a/b) + prior_logit + (m - ms) * log((1-a)/(1-b))
    gap = ms * (math.log(alpha) - math.log(beta))
    gap += prior_logit
    mns = m - ms
    mns *= math.log1p(-alpha) - math.log1p(-beta)
    gap += mns
    # e = exp(-|gap|) never overflows, and it is exp(gap) where gap < 0, so
    # this is 1 / (1 + e) where gap >= 0 and e / (1 + e) elsewhere
    e = np.abs(gap)
    np.exp(np.negative(e, out=e), out=e)
    out = np.where(gap >= 0, 1.0, e)
    out /= np.add(e, 1.0, out=e)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite posterior; parameters not clamped?")
    return out


@dataclass(frozen=True)
class Posterior:
    """One E-step's Q, per pair and per class of pairs.

    Pairs that share M, sigma in {0, 1} and the prior class share Q, and
    with it the LP weight W, since both are elementwise in these.  Each is
    computed once per class and taken to the pairs by ``key``.  The pairs in
    ``frac`` have a fractional sigma and belong to no class: their Q and W
    are computed pair by pair, and their ``key`` entries are not read.
    """

    q: np.ndarray  # per pair
    key: np.ndarray  # class of each pair
    m_class: np.ndarray  # M of each class
    q_class: np.ndarray  # Q of each class
    frac: np.ndarray  # ids of the pairs with fractional sigma


def _posterior_by_class(state: EmState, logits: np.ndarray,
                        prior_class: np.ndarray | None = None) -> Posterior:
    """Q for the prior logits ``logits[k]`` of prior classes k.

    ``prior_class`` gives each pair's prior class; None means class 0.
    Class ``(k, s, i)`` holds the pairs of prior class k, sigma s and M
    ``m_values[i]``; its index is ``i + n_m * (s + 2 * k)``.
    """
    p, t = state.params, state.table
    m_values, m_index = t.m_classes
    n_m, sigma = len(m_values), t.sigma
    one = sigma == 1.0
    key = m_index + n_m * one
    if prior_class is not None:
        key += 2 * n_m * prior_class
    m_class = np.tile(m_values, 2 * len(logits))
    ms_class = m_class * np.repeat(np.tile([0.0, 1.0], len(logits)), n_m)
    q_class = posterior(m_class, ms_class, np.repeat(logits, 2 * n_m),
                        p.alpha, p.beta)
    q = q_class.take(key)
    frac = np.flatnonzero((sigma != 0.0) & ~one)
    if len(frac):
        m = t.m[frac]
        logit = logits[0] if prior_class is None else logits[prior_class[frac]]
        q[frac] = posterior(m, m * sigma[frac], logit, p.alpha, p.beta)
    return Posterior(q, key, m_class, q_class, frac)


def update_q_er(state: EmState) -> Posterior:
    p = state.params
    return _posterior_by_class(
        state, np.array([math.log(p.rho) - math.log1p(-p.rho)]))


def update_q_sbm(state: EmState) -> Posterior:
    p = state.params
    g = state.groups
    same = g[state.table.pairs[:, 0]] == g[state.table.pairs[:, 1]]
    logit_in = math.log(p.p_in) - math.log1p(-p.p_in)
    logit_out = math.log(p.q_out) - math.log1p(-p.q_out)
    return _posterior_by_class(state, np.array([logit_out, logit_in]),
                               same.astype(np.intp))


# ---------------------------------------------------------------------------
# M-step


def update_alpha_beta(state: EmState, q: np.ndarray) -> tuple[float, float]:
    """The utilization rates under the current sigma (``ms = M * sigma``)."""
    p, t = state.params, state.table
    return utilization_rates(t.m, t.m * t.sigma, q, p.alpha, p.beta, p.beta_fixed)


def utilization_rates(m: np.ndarray, ms: np.ndarray, q: np.ndarray,
                      alpha: float, beta: float,
                      beta_fixed: float | None = None) -> tuple[float, float]:
    """alpha = sum(ms Q) / sum(m Q); beta analogous with 1-Q weights.

    A rate whose denominator is zero keeps its given value; ``beta_fixed``
    pins beta.  These pair-length dot products are the fits' only ones.
    """
    num_a = float(np.dot(ms, q))
    den_a = float(np.dot(m, q))
    if den_a > 0.0:
        alpha = clamp(num_a / den_a)
    else:
        log.warning("alpha update skipped: zero denominator")
    if beta_fixed is not None:
        return alpha, clamp(beta_fixed)
    not_q = 1.0 - q
    num_b = float(np.dot(ms, not_q))
    den_b = float(np.dot(m, not_q))
    if den_b > 0.0:
        beta = clamp(num_b / den_b)
    else:
        log.warning("beta update skipped: zero denominator")
    return alpha, beta


def update_prior_er(state: EmState, q: np.ndarray) -> float:
    """Mean posterior over all N(N-1) ordered pairs.

    Inactive pairs carry the prior that generated the current Q, so their
    mass folds in without materializing them.
    """
    n = state.n_users
    if n < 2:
        raise ValueError("need at least two users for an edge prior")
    total = n * (n - 1)
    inactive = total - state.table.n_pairs
    rho_used = state.q_prior_used[0] if state.q_prior_used else state.params.rho
    return clamp((float(q.sum()) + inactive * rho_used) / total)


def update_prior_sbm(state: EmState, q: np.ndarray) -> tuple[float, float]:
    """Mean posterior over same-community and cross-community ordered pairs."""
    n = state.n_users
    if n < 2:
        raise ValueError("need at least two users for an edge prior")
    g = state.groups
    same_total = same_label_pairs(g)
    cross_total = n * (n - 1) - same_total

    same = g[state.table.pairs[:, 0]] == g[state.table.pairs[:, 1]]
    same_active = int(same.sum())
    cross_active = state.table.n_pairs - same_active
    if state.q_prior_used:
        p_used, q_used = state.q_prior_used
    else:
        p_used, q_used = state.params.p_in, state.params.q_out

    if same_total > 0:
        acc = float(q[same].sum()) + (same_total - same_active) * p_used
        p_new = clamp(acc / same_total)
    else:
        p_new = state.params.p_in
        log.warning("p update skipped: no same-community pairs")
    if cross_total > 0:
        acc = float(q[~same].sum()) + (cross_total - cross_active) * q_used
        q_new = clamp(acc / cross_total)
    else:
        q_new = state.params.q_out
        log.warning("q update skipped: no cross-community pairs")
    return p_new, q_new


def build_w(state: EmState, post: Posterior) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair LP weights W and the shifted objective ``W - lambda * max W``.

    W is computed on ``post``'s classes and on its fractional-sigma pairs.
    The maximum is over the pairs, so a class no pair holds does not enter.
    """
    p = state.params
    logit_a = math.log(p.alpha) - math.log1p(-p.alpha)
    logit_b = math.log(p.beta) - math.log1p(-p.beta)

    def weights(m, q):
        return m * (q * logit_a + (1.0 - q) * logit_b)

    w = weights(post.m_class, post.q_class).take(post.key)
    if len(post.frac):
        w[post.frac] = weights(state.table.m[post.frac], post.q[post.frac])
    if w.size == 0:
        return w, w
    c = float(w.max())
    return w, w - p.lam * c


# ---------------------------------------------------------------------------
# thresholding and scoring


def threshold_graph(
    table: PairTable,
    q: np.ndarray,
    n_users: int,
    prior_spec: tuple | None = None,
) -> InferredGraph:
    """Edges where the posterior strictly exceeds 0.5.

    ``prior_spec`` describes the implicit posterior of non-materialized
    pairs — ``("er", rho)`` or ``("sbm", p, q, groups)``; those pairs join
    the graph only when that prior itself exceeds 0.5.  The edges come out
    in ascending key ``i * n_users + j`` order, so the graph takes them
    without a sort.  Only a prior above 0.5 costs a pass over all n² keys,
    the flat :func:`score_matrix`; otherwise the edges are the hot rows of
    the already sorted table.
    """
    # the prior's values are (rho,) or (p, q)
    if prior_spec is None or max(prior_spec[1:3]) <= 0.5:
        hot = q > 0.5
        return InferredGraph(n_users, table.pairs[hot], q[hot])
    flat = score_matrix(table, q, n_users, prior_spec).ravel()
    keys = np.flatnonzero(flat > 0.5)
    return InferredGraph(n_users, np.column_stack(np.divmod(keys, n_users)), flat[keys])


def score_matrix(
    table: PairTable, q: np.ndarray, n_users: int, prior_spec: tuple
) -> np.ndarray:
    """Dense (n, n) score matrix: posterior for active pairs, prior elsewhere,
    0 on the diagonal."""
    if prior_spec[0] == PRIOR_ER:
        out = np.full((n_users, n_users), prior_spec[1], dtype=np.float64)
    else:
        _, p_in, q_out, groups = prior_spec
        g = np.asarray(groups)
        out = np.where(g[:, None] == g[None, :], p_in, q_out)
    out[table.pairs[:, 0], table.pairs[:, 1]] = q
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# convergence norm over the full pair matrix


def _delta_q_sq_inactive(n_users: int, pairs: np.ndarray,
                         prev_spec: tuple, curr_spec: tuple) -> float:
    """Exact inactive-pair mass of ||Q_t - Q_{t-1}||^2 without materializing.

    The specs are the priors behind the two Qs, as :func:`threshold_graph`
    takes them, both ER or both SBM.  Under the block model, ordered pairs
    split into four classes by (same under previous labels, same under
    current labels); class sizes come from label histograms and the
    joint-label contingency, minus the directly counted active pairs.
    """
    total = n_users * (n_users - 1)
    if prev_spec[0] == PRIOR_ER:
        return (total - len(pairs)) * (curr_spec[1] - prev_spec[1]) ** 2
    _, p0, q0, g_prev = prev_spec
    _, p1, q1, g_curr = curr_spec
    same_prev_all = same_label_pairs(g_prev)
    same_curr_all = same_label_pairs(g_curr)
    joint = g_prev.astype(np.int64) * (int(g_curr.max()) + 1) + g_curr
    same_both_all = same_label_pairs(joint)

    sp = g_prev[pairs[:, 0]] == g_prev[pairs[:, 1]]
    sc = g_curr[pairs[:, 0]] == g_curr[pairs[:, 1]]
    act_ss = int(np.sum(sp & sc))
    act_sp = int(np.sum(sp))
    act_sc = int(np.sum(sc))
    n_active = len(pairs)

    ss = same_both_all - act_ss
    s_then_c = (same_prev_all - same_both_all) - (act_sp - act_ss)
    c_then_s = (same_curr_all - same_both_all) - (act_sc - act_ss)
    cc = (total - same_prev_all - same_curr_all + same_both_all) - (
        n_active - act_sp - act_sc + act_ss
    )
    return (
        ss * (p1 - p0) ** 2
        + s_then_c * (q1 - p0) ** 2
        + c_then_s * (p1 - q0) ** 2
        + cc * (q1 - q0) ** 2
    )


# ---------------------------------------------------------------------------
# driver


@dataclass
class Preprocessed:
    """Trace derivatives shared by all inference runs on one input."""

    episodes: Episodes
    table: PairTable
    constraints: ConstraintSystem
    reduced: lp.ReducedCovering
    n_users: int
    users: tuple[str, ...]


def preprocess(trace: Trace) -> Preprocessed:
    episodes = build_episodes(trace)
    table = pair_counts(episodes, trace.n_users)
    constraints = build_constraints(episodes, table)
    reduced = lp.reduce_covering(table.n_pairs, constraints.row_ptr,
                                 constraints.pair_ids, constraints.targets)
    return Preprocessed(episodes, table, constraints, reduced,
                        trace.n_users, trace.users)


def run_cem(
    data: Trace | Preprocessed,
    prior: str,
    lam: float,
    *,
    beta_fixed: float | None = None,
    max_iters: int = 100,
    epsilon: float = 1e-3,
    seed: int = 0,
    fixed_groups: Sequence[int] | None = None,
    dump_lp_path: str | None = None,
) -> tuple[EmState, InferredGraph]:
    """Run the constrained EM loop until ||Q_new - Q_old||_2 < epsilon.

    All randomness (parameter initialization and Louvain visiting order)
    derives from ``seed`` through independent child streams, so runs are
    reproducible bit for bit.  ``fixed_groups`` pins the block assignment,
    which disables the per-iteration Louvain refresh.
    """
    if prior not in (PRIOR_ER, PRIOR_SBM):
        raise ValueError(f"unknown prior {prior!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    prep = data if isinstance(data, Preprocessed) else preprocess(data)
    table = prep.table
    n = prep.n_users

    ss = np.random.SeedSequence(seed)
    s_scalar, s_prior, s_sigma, s_groups, s_louvain = ss.spawn(5)
    rng_scalar = np.random.default_rng(s_scalar)
    rng_prior = np.random.default_rng(s_prior)
    rng_sigma = np.random.default_rng(s_sigma)

    # Random start on the identifiable branch: the true-positive rate above
    # one half, the false-positive rate below.  An unconstrained draw admits
    # a label-switched mirror solution and, when both logits start positive,
    # an absorbing sigma = 1 ridge with alpha = beta.
    params = ParamSet(
        prior=prior,
        alpha=clamp(0.5 + 0.5 * rng_scalar.uniform()),
        beta=clamp(0.5 * rng_scalar.uniform()),
        lam=lam,
        beta_fixed=beta_fixed,
    )
    if beta_fixed is not None:
        params.beta = clamp(beta_fixed)
    if prior == PRIOR_ER:
        params.rho = clamp(rng_prior.uniform())
        groups = None
    else:
        params.p_in = clamp(rng_prior.uniform())
        params.q_out = clamp(rng_prior.uniform())
        if fixed_groups is not None:
            groups = np.asarray(fixed_groups, dtype=np.int64)
            if groups.shape != (n,):
                raise ValueError("fixed_groups must assign every user")
        else:
            rng_groups = np.random.default_rng(s_groups)
            n_blocks = max(1, math.isqrt(n - 1) + 1) if n > 1 else 1
            groups = rng_groups.integers(0, n_blocks, size=n)
    # one Louvain seed per run: a fresh draw each iteration lets tie-breaks
    # flip labels forever and the Q norm never settles
    louvain_seed = int(np.random.default_rng(s_louvain).integers(0, 2**31 - 1))

    table.sigma = rng_sigma.uniform(size=table.n_pairs)
    state = EmState(params, table, groups, n)

    q_prev: np.ndarray | None = None
    interim_prev: InferredGraph | None = None
    warm: lp.WarmStart | None = None

    for it in range(1, max_iters + 1):
        # the prior behind this iteration's Q: its norm, interim graph and
        # final scores all read this one value
        state.prior_spec = spec = params.prior_spec(groups)
        state.q_prior_used = spec[1:3]
        post = update_q_er(state) if prior == PRIOR_ER else update_q_sbm(state)
        q_new = post.q

        if q_prev is not None:
            acc = float(np.sum((q_new - q_prev) ** 2))
            acc += _delta_q_sq_inactive(n, table.pairs, spec_prev, spec)
            state.delta_q = math.sqrt(acc)

        # LP objective uses the previous iteration's utilization rates
        _, coeffs = build_w(state, post)
        if dump_lp_path and it == 1:
            lp.dump_problem(coeffs, prep.constraints.row_ptr,
                            prep.constraints.pair_ids, dump_lp_path)
        sol = lp.solve_reduced(prep.reduced, coeffs, warm=warm)
        warm = sol.warm
        log.debug("iteration %d: lp %s, %d pivots, %d/%d components reused, "
                  "posterior on %d pair classes and %d fractional-sigma pairs",
                  it, sol.status, sol.n_pivots, sol.n_reused, sol.n_solved,
                  len(post.q_class), len(post.frac))
        if sol.status != lp.STATUS_OPTIMAL:
            raise RuntimeError(f"sigma LP failed with status {sol.status!r}")

        alpha_new, beta_new = update_alpha_beta(state, q_new)
        if prior == PRIOR_ER:
            params.rho = update_prior_er(state, q_new)
        else:
            params.p_in, params.q_out = update_prior_sbm(state, q_new)
        params.alpha, params.beta = alpha_new, beta_new
        table.q = q_new
        table.sigma = sol.x
        state.iteration = it

        if prior == PRIOR_SBM and fixed_groups is None:
            interim = threshold_graph(table, q_new, n, spec)
            # Louvain sees only the edge arrays and the fixed seed, so an
            # unchanged graph would return the labels it already gave
            reused = (interim_prev is not None
                      and np.array_equal(interim.src, interim_prev.src)
                      and np.array_equal(interim.dst, interim_prev.dst))
            if not reused:
                groups = louvain_graph(interim, seed=louvain_seed).labels
            state.groups = groups
            interim_prev = interim
            log.debug("iteration %d: louvain %s, %d communities", it,
                      "reused" if reused else "ran", int(groups.max()) + 1)

        if q_prev is not None and state.delta_q < epsilon:
            state.converged = True
            break
        q_prev, spec_prev = q_new, spec

    if not state.converged:
        log.warning("EM stopped at iteration cap (%d); delta_q=%.3g",
                    state.iteration, state.delta_q)

    graph = threshold_graph(table, table.q, n, state.prior_spec)
    return state, graph
