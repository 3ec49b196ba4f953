"""Synthetic ground-truth graphs and newsfeed diffusion traces.

A block-model follower graph is sampled first; each user then carries two
activity rates (posting, reposting) and the global event stream interleaves
per-user exponential clocks.  Diffusion runs a capacity-limited newsfeed
per user: posts land on followers' feeds (evicting a random slot when
full), a reposting user picks one feed entry uniformly at random, skipping
roots it already shared (one repick, then the event is dropped).  Every
repost therefore traverses a real follower edge, so the emitted trace is
100% feasible with respect to the generating graph by construction.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .graph import InferredGraph
from .trace import ORIGINAL_RID, Trace, read_utf8

log = logging.getLogger("cemnet.simulate")

POST = 0
REPOST = 1

# generate_sbm_graph draws a dense n x n matrix: at this bound it holds two
# 800 MB float64 matrices at once
MAX_USERS = 10_000


class ConfigError(ValueError):
    """A simulation config file with unknown keys or invalid values."""


@dataclass
class SimConfig:
    n_users: int = 100
    n_blocks: int = 7
    block_sizes: list[int] | None = None  # default: random partition
    p_intra: float = 0.06
    q_inter: float = 0.007
    feed_capacity: int = 10
    n_events: int = 100_000
    post_rate: tuple[float, float] = (0.001, 0.006)
    repost_rate: tuple[float, float] = (0.03, 0.15)
    seed: int = 0

    def __post_init__(self):
        for name in ("n_users", "n_blocks", "feed_capacity", "n_events", "seed"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be a non-negative 64-bit integer, "
                                 f"got {getattr(self, name)!r}")
        for name in ("post_rate", "repost_rate"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(r, (int, float)) and not isinstance(r, bool)
                            and math.isfinite(r) for r in pair)):
                raise ValueError(f"{name} must be a pair of finite rates, got {pair!r}")
            setattr(self, name, tuple(pair))
        if not (0.0 <= self.p_intra <= 1.0 and 0.0 <= self.q_inter <= 1.0):
            raise ValueError("connection probabilities must lie in [0, 1]")
        if self.n_users < 1 or self.n_events < 1 or self.feed_capacity < 1:
            raise ValueError("counts and capacities must be positive")
        if self.n_users > MAX_USERS:
            raise ValueError(f"n_users must be at most {MAX_USERS}, got {self.n_users}")
        if min(*self.post_rate, *self.repost_rate) < 0:
            raise ValueError("activity rates cannot be negative")
        if max(self.post_rate) + max(self.repost_rate) <= 0:
            raise ValueError("at least one activity rate must be positive")
        sizes = self.block_sizes
        if sizes is not None and not isinstance(sizes, (list, tuple)):
            raise ValueError(f"block_sizes must be a list, got {sizes!r}")
        if sizes is not None:
            if not all(_is_count(k) and k >= 1 for k in sizes) or sum(sizes) != self.n_users:
                raise ValueError(f"block sizes {sizes} do not partition {self.n_users} users")
        elif not 1 <= self.n_blocks <= self.n_users:
            raise ValueError(f"n_blocks must lie in 1..{self.n_users}, got {self.n_blocks}")

    @classmethod
    def from_json(cls, path: str | Path) -> "SimConfig":
        try:
            raw = json.load(read_utf8(path, ConfigError, f"{path}: "))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"{path}: unknown config key(s) {', '.join(map(repr, unknown))}")
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _is_count(value) -> bool:
    """An integer (not a bool) in 0..2**63-1, the range numpy's int64 can take."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and 0 <= value < 2**63)


@dataclass
class SimOutput:
    trace: Trace
    truth_graph: InferredGraph
    truth_labels: np.ndarray
    n_posts: int
    n_reposts: int
    n_skipped: int


def _partition(n_users: int, n_blocks: int, rng: np.random.Generator) -> list[int]:
    """Random partition into nonempty parts of varying sizes.

    Users drop into blocks uniformly; redrawn in the rare case a block
    comes out empty.
    """
    if n_blocks > n_users:
        raise ValueError("more blocks than users")
    if n_blocks == 1:
        return [n_users]
    while True:
        sizes = rng.multinomial(n_users, rng.dirichlet([3.0] * n_blocks))
        if sizes.min() > 0:
            return list(sizes.astype(int))


def generate_sbm_graph(
    config: SimConfig, rng: np.random.Generator
) -> tuple[InferredGraph, np.ndarray]:
    """Directed block-model graph: ordered pairs connect with p inside a
    block and q across blocks."""
    n = config.n_users
    sizes = config.block_sizes
    if sizes is None:
        sizes = _partition(n, config.n_blocks, rng)
    if sum(sizes) != n or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes {sizes} do not partition {n} users")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    same = labels[:, None] == labels[None, :]
    prob = np.where(same, config.p_intra, config.q_inter)
    draw = rng.uniform(size=(n, n)) < prob
    np.fill_diagonal(draw, False)
    return InferredGraph(n, np.argwhere(draw)), labels


def generate_events(
    config: SimConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged event stream ``(times, uids, kinds)`` of length n_events.

    Every user runs two independent exponential clocks; merging them is
    equivalent to one global clock at the summed rate whose events pick an
    owner proportionally to its rate.  Timestamps are continuous and later
    floored to integer ticks, so several events may share a tick; row order
    preserves the true ordering.
    """
    n = config.n_users
    post_rates = rng.uniform(*config.post_rate, size=n)
    repost_rates = rng.uniform(*config.repost_rate, size=n)
    rates = np.concatenate([post_rates, repost_rates])
    total = float(rates.sum())
    gaps = rng.exponential(1.0 / total, size=config.n_events)
    times = np.cumsum(gaps)
    owners = rng.choice(2 * n, size=config.n_events, p=rates / total)
    uids = owners % n
    kinds = np.where(owners < n, POST, REPOST)
    return times, uids.astype(np.int64), kinds.astype(np.int64)


def run_diffusion(
    graph: InferredGraph,
    labels: np.ndarray,
    events: tuple[np.ndarray, np.ndarray, np.ndarray],
    config: SimConfig,
    rng: np.random.Generator,
) -> SimOutput:
    """Replay the event stream through per-user newsfeeds into a trace."""
    n = config.n_users
    cap = config.feed_capacity
    followers = graph.out_adj

    feeds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    reposted_roots: list[set[int]] = [set() for _ in range(n)]
    rows: list[tuple[int, int, int]] = []  # (tick, user, parent row or -1)
    uid_tok = [f"u{i:04d}" for i in range(n)]

    def push(target: int, entry: tuple[int, int]) -> None:
        feed = feeds[target]
        if len(feed) < cap:
            feed.append(entry)
        else:
            feed[int(rng.integers(cap))] = entry

    next_pid = 0
    n_posts = n_reposts = n_skipped = 0
    times, uids, kinds = events
    for idx in range(len(times)):
        u = int(uids[idx])
        tick = int(math.floor(times[idx]))
        if kinds[idx] == POST:
            pid = next_pid
            next_pid += 1
            rows.append((tick, u, -1))
            reposted_roots[u].add(pid)
            for v in followers[u]:
                push(v, (pid, pid))
            n_posts += 1
        else:
            feed = feeds[u]
            if not feed:
                n_skipped += 1
                continue
            epid, eroot = feed[int(rng.integers(len(feed)))]
            if eroot in reposted_roots[u]:
                epid, eroot = feed[int(rng.integers(len(feed)))]
                if eroot in reposted_roots[u]:
                    n_skipped += 1
                    continue
            pid = next_pid
            next_pid += 1
            rows.append((tick, u, epid))
            reposted_roots[u].add(eroot)
            for v in followers[u]:
                push(v, (pid, eroot))
            n_reposts += 1

    log.info(
        "diffusion: %d posts, %d reposts, %d skipped repost events",
        n_posts, n_reposts, n_skipped,
    )
    # a post's number is its row
    ticks, posters, parents = np.array(rows, dtype=np.int64).reshape(-1, 3).T.tolist()
    pids = [f"p{k:07d}" for k in range(len(rows))]
    trace = Trace.from_columns(pids, ticks, [uid_tok[u] for u in posters],
                               [ORIGINAL_RID if k < 0 else pids[k] for k in parents])
    # align graph/label indices with the trace's interning so in-memory
    # consumers see one consistent universe; users without any row (index
    # -1) fall out of that universe together with their edges
    index = np.array([trace.uid_index.get(tok, -1) for tok in uid_tok], dtype=np.int64)
    seen = index >= 0
    silent = np.flatnonzero(~seen)
    if len(silent):
        log.warning(
            "%d users produced no trace rows (e.g. %s); restricting the "
            "ground truth to the %d observed users",
            len(silent), [uid_tok[k] for k in silent[:3]], trace.n_users,
        )
    src, dst = index[graph.src], index[graph.dst]
    kept = (src >= 0) & (dst >= 0)
    aligned_edges = np.column_stack([src[kept], dst[kept]])
    aligned_labels = np.empty(trace.n_users, dtype=labels.dtype)
    aligned_labels[index[seen]] = labels[seen]
    return SimOutput(
        trace, InferredGraph(trace.n_users, aligned_edges), aligned_labels,
        n_posts, n_reposts, n_skipped,
    )


def simulate(config: SimConfig) -> SimOutput:
    """Graph sampling, event generation, and diffusion under one seed."""
    ss = np.random.SeedSequence(config.seed)
    s_graph, s_events, s_diff = ss.spawn(3)
    graph, labels = generate_sbm_graph(config, np.random.default_rng(s_graph))
    events = generate_events(config, np.random.default_rng(s_events))
    return run_diffusion(graph, labels, events, config, np.random.default_rng(s_diff))


def rewire_edges(graph: InferredGraph, fraction: float, seed: int = 0) -> InferredGraph:
    """Replace a fraction of edges with uniformly random non-edges.

    Used to manufacture traces whose generating graph disagrees with the
    nominal truth, mimicking partially deleted or out-of-band connections.
    """
    rng = np.random.default_rng(seed)
    n = graph.n_users
    dropped = rng.choice(graph.n_edges, size=int(round(fraction * graph.n_edges)),
                         replace=False)
    # edge keys i*n + j; a self-loop or a key already taken adds nothing, so draw again
    taken = set(np.delete(graph.src * n + graph.dst, dropped).tolist())
    while len(taken) < graph.n_edges:
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i != j:
            taken.add(i * n + j)
    keys = np.fromiter(taken, dtype=np.int64, count=len(taken))
    return InferredGraph(n, np.column_stack([keys // n, keys % n]))
