"""Reference inference methods: Star, Chain, Saito-style IC EM, Newman EM.

Star links every episode author to each of its resharers; Chain links
consecutive resharers.  The Saito baseline runs discrete-time
independent-cascade EM, so a reshare can only be credited to members
active one time unit earlier.  The Newman baseline is the unconstrained
noisy-measurement EM fed with direct author-to-resharer counts only; it
runs on the E-step, rate update, norm and thresholding of ``em``, so it is
CEM-er without the LP.  Neither EM baseline sees hidden multi-hop paths,
which is exactly what costs them feasibility.  Both keep the pairs whose
final probability exceeds 0.5, and both read each slot's pair id from
``pair_counts(...).slot_ids``, the one pass kept on the ``Episodes``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
import numpy as np

from . import em
from .graph import InferredGraph
from .trace import Episodes, PairTable, pair_counts, predecessor_slots

log = logging.getLogger("cemnet.baselines")

_PROB_FLOOR = 1e-12


def star_graph(episodes: Episodes, n_users: int) -> InferredGraph:
    """Directed edge from each episode author to every other participant."""
    slots = predecessor_slots(episodes)
    return InferredGraph(n_users, np.column_stack(
        [slots.users[slots.start], slots.users[slots.stop]]))


def chain_graph(episodes: Episodes, n_users: int) -> InferredGraph:
    """Directed path along each episode's chronological order."""
    slots = predecessor_slots(episodes)
    return InferredGraph(n_users, np.column_stack(
        [slots.users[slots.stop - 1], slots.users[slots.stop]]))


@dataclass
class SaitoResult:
    table: PairTable
    kappa: np.ndarray  # influence probability per active pair
    graph: InferredGraph
    iterations: int
    converged: bool


def saito_em(
    episodes: Episodes,
    n_users: int,
    *,
    max_iters: int = 100,
    epsilon: float = 1e-6,
    seed: int = 0,
    init_kappa: float | None = None,
) -> SaitoResult:
    """Discrete-time independent-cascade EM over influence probabilities.

    Under the IC model a user activated at time t gets a single chance to
    infect each susceptible neighbor at t + 1.  Candidate parents of a
    reshare are therefore the episode members active exactly one time unit
    earlier; reshares with no such member are unexplained and earn nobody
    credit.  E-step: the credit for an explained reshare splits among its
    window parents i proportionally to kappa_ij / (1 - prod(1 - kappa)).
    M-step: kappa_ij is the summed credit over the trials where i had a
    chance at j, i.e. episodes containing i in which j was still
    susceptible one unit after i acted.  Unexplained reshares are why this
    baseline stays extremely sparse on reshare traces.
    """
    table = pair_counts(episodes, n_users)
    p_count = table.n_pairs
    slots = predecessor_slots(episodes)
    window_ids: list[np.ndarray] = []
    window_len: list[np.ndarray] = []
    no_trial = np.zeros(p_count)
    for at, blk in slots.blocks():
        src = blk.gather()
        ids = table.slot_ids[at:at + len(src)]
        t_src = slots.times[src]
        t_before = np.repeat(slots.times[blk.stop] - 1.0, blk.row_len)
        # candidate parents of each reshare: members active one unit earlier
        in_window = t_src == t_before
        window_ids.append(ids[in_window])
        window_len.append(np.add.reduceat(in_window, blk.row_ptr[:-1], dtype=np.intp))
        # trials require j susceptible at t_i + 1: simultaneous activations
        # (t_i == t_j) present no chance at all
        no_trial += np.bincount(ids[t_src > t_before], minlength=p_count)
    flat_ids = np.concatenate(window_ids)
    per_row = np.concatenate(window_len)
    per_row = per_row[per_row > 0]
    starts = np.cumsum(per_row) - per_row
    row_of_slot = np.repeat(np.arange(len(per_row)), per_row)
    participation = np.bincount(slots.users, minlength=n_users).astype(np.float64)

    # pairs where j acted strictly before i never present a trial either;
    # those episodes are subtracted via the reverse counts
    rev = table.ids(table.pairs[:, 1], table.pairs[:, 0])
    m_rev = np.where(rev >= 0, table.m[rev], 0.0)
    # trials(i, j) = episodes containing i, minus those where j was already
    # infected when i acted (reverse order) or activated inside i's window
    # without being attributable (no_trial above).
    denom = participation[table.pairs[:, 0]] - m_rev - no_trial
    denom = np.maximum(denom, 1.0)

    if init_kappa is not None:
        kappa = np.full(p_count, float(init_kappa))
    else:
        kappa = np.random.default_rng(seed).uniform(size=p_count)
    kappa = np.clip(kappa, _PROB_FLOOR, 1.0 - _PROB_FLOOR)

    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        if len(flat_ids):
            probs = kappa[flat_ids]
            log_fail = np.log1p(-np.minimum(probs, 1.0 - _PROB_FLOOR))
            activation = 1.0 - np.exp(np.add.reduceat(log_fail, starts))
            activation = np.maximum(activation, _PROB_FLOOR)
            resp = probs / activation[row_of_slot]
            credit = np.bincount(flat_ids, weights=resp, minlength=p_count)
        else:
            credit = np.zeros(p_count)
        new_kappa = np.clip(credit / denom, 0.0, 1.0)
        delta = float(np.max(np.abs(new_kappa - kappa))) if p_count else 0.0
        kappa = new_kappa
        if delta < epsilon:
            converged = True
            break
    if not converged:
        log.warning("saito EM hit iteration cap (%d)", max_iters)

    hot = kappa > 0.5
    graph = InferredGraph(n_users, table.pairs[hot], kappa[hot])
    return SaitoResult(table, kappa, graph, it, converged)


def _classes(m: np.ndarray, direct: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of the integer-valued ``(m, direct)``, ascending, as two
    float64 columns, and each pair's row: with direct < span, one key sorts as the rows."""
    span = int(direct.max(initial=0)) + 1
    classes, key = np.unique(m.astype(np.int64) * span + direct.astype(np.int64),
                             return_inverse=True)
    m_class, direct_class = np.divmod(classes, span)
    return m_class.astype(np.float64), direct_class.astype(np.float64), key


@dataclass
class NewmanResult:
    table: PairTable
    direct: np.ndarray  # author->resharer evidence count per active pair
    q: np.ndarray
    alpha: float
    beta: float
    rho: float
    graph: InferredGraph
    iterations: int
    converged: bool


def newman_em(
    episodes: Episodes,
    n_users: int,
    *,
    max_iters: int = 100,
    epsilon: float = 1e-3,
    seed: int = 0,
) -> NewmanResult:
    """Noisy-measurement EM on direct observations.

    Per ordered pair the trial count is M_ij and the success count E_ij is
    the number of episodes authored by i in which j reshared.  This is the
    constrained method's ER loop without the LP: the same posterior,
    utilization rates, flat prior, convergence norm and thresholding, with
    E_ij in place of M_ij sigma_ij.
    """
    if n_users < 2:
        raise ValueError("need at least two users for an edge prior")
    table = pair_counts(episodes, n_users)
    # each covering row's first slot is the author
    author_ids = table.slot_ids[predecessor_slots(episodes).row_ptr[:-1]]
    direct = np.bincount(author_ids, minlength=table.n_pairs).astype(np.float64)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # identifiable branch, as in the constrained method: start the
    # true-positive rate above one half and the false-positive rate below
    alpha = em.clamp(0.5 + 0.5 * rng.uniform())
    beta = em.clamp(0.5 * rng.uniform())
    rho = em.clamp(rng.uniform())

    # Q depends on a pair only through its (M, direct), which stay fixed for
    # the fit: one posterior per distinct (M, direct), taken to the pairs
    m_class, direct_class, key = _classes(table.m, direct)

    n_total = n_users * (n_users - 1)
    q = np.full(table.n_pairs, rho)
    rho_used_prev: float | None = None
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        rho_used = rho
        q_new = em.posterior(m_class, direct_class,
                             math.log(rho) - math.log1p(-rho), alpha, beta).take(key)
        alpha, beta = em.utilization_rates(table.m, direct, q_new, alpha, beta)
        rho = em.clamp((float(q_new.sum()) + (n_total - table.n_pairs) * rho_used)
                       / n_total)
        if rho_used_prev is not None:
            delta_sq = float(np.sum((q_new - q) ** 2))
            delta_sq += em._delta_q_sq_inactive(n_users, table.pairs,
                                                (em.PRIOR_ER, rho_used_prev),
                                                (em.PRIOR_ER, rho_used))
            if math.sqrt(delta_sq) < epsilon:
                q = q_new
                converged = True
                break
        q = q_new
        rho_used_prev = rho_used
    if not converged:
        log.warning("newman EM hit iteration cap (%d)", max_iters)
    graph = em.threshold_graph(table, q, n_users, (em.PRIOR_ER, rho))
    return NewmanResult(table, direct, q, alpha, beta, rho, graph, it, converged)
