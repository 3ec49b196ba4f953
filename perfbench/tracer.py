"""In-memory span tracing of cemnet's public functions, installed from outside.

The tracer replaces module attributes with timing wrappers for the length of
one traced pass and restores them afterwards; the package source is never
edited.  Each span records its name, start, end, parent span and fit id.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module, attribute, span name).  A caller that bound a function at import
# time looks it up in its own namespace, so ``em`` and ``baselines`` are
# patched where they call ``pair_counts``, ``build_episodes``,
# ``build_constraints`` and ``louvain_graph``, not only where those live.
PATCHES = (
    ("trace", "parse_trace", "trace.parse"),
    ("em", "build_episodes", "trace.episodes"),
    ("em", "pair_counts", "trace.pair_counts"),
    ("baselines", "pair_counts", "trace.pair_counts"),
    ("em", "build_constraints", "constraints.build"),
    ("constraints", "check_feasibility", "constraints.feascheck"),
    ("lp", "reduce_covering", "lp.reduce"),
    ("lp", "solve_reduced", "lp.solve"),
    ("em", "preprocess", "em.preprocess"),
    ("em", "run_cem", "em.run"),
    ("em", "update_q_er", "em.estep"),
    ("em", "update_q_sbm", "em.estep"),
    ("em", "update_alpha_beta", "em.mstep"),
    ("em", "update_prior_er", "em.mstep"),
    ("em", "update_prior_sbm", "em.mstep"),
    ("em", "build_w", "em.mstep"),
    ("em", "threshold_graph", "em.threshold"),
    ("em", "score_matrix", "em.score_matrix"),
    ("em", "louvain_graph", "community.louvain"),
    ("community", "louvain_graph", "community.louvain"),
    ("metrics", "classification_scores", "metrics.classify"),
    ("metrics", "graph_stats", "metrics.graph_stats"),
    ("baselines", "star_graph", "baselines.star_chain"),
    ("baselines", "chain_graph", "baselines.star_chain"),
    ("baselines", "saito_em", "baselines.saito"),
    ("baselines", "newman_em", "baselines.newman"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    fit: int | None
    pivots: int = 0  # lp.solve only
    optimal: bool = True  # lp.solve only

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stand-in for untraced runs: patches nothing, records nothing."""

    def installed(self):
        return contextlib.nullcontext(self)

    def fit(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._fit: int | None = None
        self._n_fits = 0
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def installed(self):
        """Patch every name in PATCHES; restore the originals on exit."""
        try:
            for mod_name, attr, span_name in PATCHES:
                module = importlib.import_module(f"cemnet.{mod_name}")
                original = getattr(module, attr)  # a rename fails loudly here
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    @contextlib.contextmanager
    def fit(self):
        """Give every span opened inside (a fit and its checks) one fit id."""
        self._fit, self._n_fits = self._n_fits, self._n_fits + 1
        try:
            yield
        finally:
            self._fit = None

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self._fit)
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "lp.solve":
                span.pivots = out.n_pivots
                span.optimal = out.status == "optimal"
            return out

        return traced


@dataclass
class LayerStats:
    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: Counter
    top_level_s: float  # time covered by spans that have no parent
    pivots: int
    nonoptimal: int


def layer_stats(spans: list[Span], first: int = 0) -> LayerStats:
    """Per-name self time, inclusive time and call counts of ``spans[first:]``.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_s = defaultdict(float)
    for span in spans[first:]:
        if span.parent is not None:
            child_s[span.parent] += span.seconds
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    top = 0.0
    pivots = nonoptimal = 0
    for idx in range(first, len(spans)):
        span = spans[idx]
        self_s[span.name] += span.seconds - child_s[idx]
        total_s[span.name] += span.seconds
        calls[span.name] += 1
        if span.parent is None:
            top += span.seconds
        pivots += span.pivots
        nonoptimal += not span.optimal
    return LayerStats(dict(self_s), dict(total_s), calls, top, pivots, nonoptimal)
