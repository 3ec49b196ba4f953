"""The timed part of each workload: one input's pass, verified.

A pass runs the user path on one input and checks every CEM fit: the LP
must end optimal (``run_cem`` raises otherwise), the graph must explain every
episode, and a lambda = 1 fit must reach the acceptance suite's C2 quality
floors.  Each fit's graph digest is kept so that rounds, and runs on the same
seed, can be compared.  Only calls into cemnet run on the stopwatch; digests
and truth loading run off it.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from cemnet import baselines, community, constraints, em, metrics, trace
from cemnet.graph import InferredGraph, read_graph_csv, read_labels_csv
from reference import nominal, tick

EM_SEED = 7  # the acceptance suite's pinned inference seed
HEAD_ROWS = 50_000
PAPER_FITS = (("er", 1.0), ("er", 0.0), ("sbm", 1.0), ("sbm", 0.0))
SWEEP_LAMBDAS = (1.0, 0.5, 0.25, 0.0)
# acceptance C2 floors, applied to every lambda = 1 fit
FLOORS = {"precision": 0.75, "recall": 0.85, "auc": 0.92}


class Stopwatch:
    """Seconds spent inside ``with watch.step(name)`` blocks, per step name.

    ``steps`` holds the seconds as measured.  ``nominal`` holds each step's
    seconds at the nominal machine speed, read by the reference unit timed
    right before and right after the step, off the clock (see reference.py).
    """

    def __init__(self):
        self.steps: dict[str, float] = {}
        self.nominal: dict[str, float] = {}

    @contextlib.contextmanager
    def step(self, name: str):
        before = tick()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            sec = time.perf_counter() - t0
            self.steps[name] = self.steps.get(name, 0.0) + sec
            self.nominal[name] = self.nominal.get(name, 0.0) + nominal(sec, before + tick())

    @property
    def seconds(self) -> float:
        return sum(self.steps.values())

    @property
    def nominal_seconds(self) -> float:
        return sum(self.nominal.values())


@dataclass
class Loaded:
    """One parsed and preprocessed input with its ground truth."""

    prep: em.Preprocessed
    truth: InferredGraph
    truth_labels: list[int]
    counts: dict


@dataclass
class FitResult:
    key: str  # "prior:lambda"
    lam: float
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    iterations: int = 0
    converged: bool = False
    feasibility: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    auc: float = 0.0
    community_f1: float | None = None
    n_communities: int = 0


@dataclass
class InputResult:
    counts: dict
    fits: list[FitResult]
    baselines: dict = field(default_factory=dict)

    def record(self) -> dict:
        """Everything that must repeat exactly between rounds and runs."""
        return {
            "counts": self.counts,
            "fits": {f.key: [f.digest, f.iterations] for f in sorted(
                self.fits, key=lambda f: f.key)},
            "baselines": self.baselines,
        }


def digest(graph) -> str:
    """Hash of the sorted edge list."""
    edges = np.array(sorted(graph.edges), dtype=np.int64).reshape(-1, 2)
    return hashlib.sha256(edges.tobytes()).hexdigest()[:16]


def parse_and_preprocess(files, head_rows: int | None = None):
    tr = trace.parse_trace(files.trace_csv)
    if head_rows is not None:
        tr = tr.head(head_rows)
    return tr, em.preprocess(tr)


def load_truth(files, tr, prep) -> Loaded:
    comps = prep.reduced.components
    counts = {
        "trace.rows": len(tr.records),
        "trace.episodes": len(prep.episodes),
        "trace.pairs": prep.table.n_pairs,
        "constraints.rows": len(prep.constraints),
        "lp.kept_rows": sum(len(c.rows) for c in comps),
        "lp.components": len(comps),
        "lp.max_component_vars": max((len(c.var_ids) for c in comps), default=0),
    }
    return Loaded(prep, read_graph_csv(files.truth_csv, tr.users),
                  read_labels_csv(files.labels_csv, tr.users), counts)


def run_fit(data: Loaded, prior: str, lam: float, timed: Stopwatch, step: str,
            tracer, *, with_f1: bool = False, with_stats: bool = False) -> FitResult:
    res = FitResult(f"{prior}:{lam}", lam)
    prep = data.prep
    with tracer.fit():
        try:
            with timed.step(f"{step}:{res.key}"):
                state, graph = em.run_cem(prep, prior, lam, seed=EM_SEED)
                # run_cem leaves its posterior in the shared table; score it
                # before the next fit on this Preprocessed overwrites it
                scores = em.score_matrix(prep.table, prep.table.q,
                                         prep.n_users, state.prior_spec)
                feas = constraints.check_feasibility(graph, prep.episodes)
                rep = metrics.classification_scores(graph, data.truth, scores=scores)
                if with_f1:
                    found = community.louvain_graph(graph, seed=EM_SEED)
                    res.community_f1 = community.pairwise_f1(
                        found.labels, data.truth_labels)
                    res.n_communities = found.n_communities
                if with_stats:
                    metrics.graph_stats(graph)
        except Exception:  # a raising fit is a failed fit, not a crash
            traceback.print_exc()
            res.problems.append("raised")
            return res
    res.digest = digest(graph)
    res.iterations = state.iteration
    res.converged = state.converged
    res.feasibility = feas.fraction
    res.precision, res.recall, res.auc = rep.precision, rep.recall, rep.auc
    if feas.fraction < 1.0:
        res.problems.append(f"feasibility {feas.fraction}")
    if lam == 1.0:
        res.problems += [f"{k} {getattr(rep, k):.4f} < {floor}"
                         for k, floor in FLOORS.items() if getattr(rep, k) < floor]
    return res


def paper_input(files, k: int, timed: Stopwatch, tracer) -> InputResult:
    """Parse and preprocess one trace, four verified CEM fits, four baselines."""
    with timed.step(f"{k}:load"):
        tr, prep = parse_and_preprocess(files, HEAD_ROWS)
    data = load_truth(files, tr, prep)
    fits = [run_fit(data, prior, lam, timed, str(k), tracer,
                    with_f1=(prior == "sbm" and lam == 1.0))
            for prior, lam in PAPER_FITS]
    n = prep.n_users
    with timed.step(f"{k}:baselines"):
        star = baselines.star_graph(prep.episodes, n)
        chain = baselines.chain_graph(prep.episodes, n)
        saito = baselines.saito_em(prep.episodes, n, seed=EM_SEED)
        newman = baselines.newman_em(prep.episodes, n, seed=EM_SEED)
    return InputResult(data.counts, fits, {
        "star": digest(star), "chain": digest(chain),
        "saito": digest(saito.graph), "newman": digest(newman.graph),
        "saito_converged": saito.converged,
    })


def sweep_input(data: Loaded, k: int, seed: int, round_no: int, timed: Stopwatch,
                tracer) -> InputResult:
    """CEM-er at every lambda on one shared Preprocessed, in a fresh order.

    The order changes with the seed and the round, so equal per-lambda
    digests across rounds show that results do not depend on call order.
    """
    order = np.random.default_rng((seed, round_no, k)).permutation(len(SWEEP_LAMBDAS))
    fits = [run_fit(data, "er", SWEEP_LAMBDAS[i], timed, str(k), tracer,
                    with_stats=(SWEEP_LAMBDAS[i] == 1.0))
            for i in order]
    return InputResult(data.counts, fits)
