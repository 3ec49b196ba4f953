"""Per-episode covering constraints and trace-vs-graph feasibility checks.

Every non-author participant of an episode must have received the post from
somebody who shared it earlier, which yields one covering row per
(episode, resharer): the sigma variables of the pairs preceding that user
must sum to at least one.  A graph explains an episode exactly when each
such row is covered by an actual edge; following any predecessor edge
strictly decreases episode position, so this local test is equivalent to
the existence of a time-respecting path from the author.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .graph import InferredGraph
from .trace import Episodes, PairTable, predecessor_slots


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Covering rows in CSR form: row ``r`` is ``pair_ids[row_ptr[r]:row_ptr[r + 1]]``.

    Row ``r`` belongs to resharer ``targets[r]`` of episode ``episode_ids[r]``
    and lists its predecessors' pair ids in episode order, the author first.
    """

    row_ptr: np.ndarray  # (R + 1,) int64
    pair_ids: np.ndarray  # (S,) indices into the PairTable, read-only, as trace.key_dtype
    episode_ids: np.ndarray  # (R,) int64
    targets: np.ndarray  # (R,) int64
    n_vars: int  # number of sigma variables = active pairs

    def __len__(self) -> int:
        return len(self.targets)


def build_constraints(episodes: Episodes, table: PairTable) -> ConstraintSystem:
    """One covering row per (episode, non-author user) over active-pair ids:
    the ``slot_ids`` of ``table``, which ``pair_counts(episodes)`` made."""
    if table.slot_ids is None:
        raise ValueError("the pair table has no slot ids: use pair_counts")
    slots = predecessor_slots(episodes)
    return ConstraintSystem(slots.row_ptr, table.slot_ids, slots.episode_ids,
                            slots.targets, table.n_pairs)


@dataclass(frozen=True)
class FeasibilityReport:
    fraction: float
    n_feasible: int
    n_episodes: int
    per_episode: tuple[bool, ...]

    def to_json(self) -> dict:
        return {
            "fraction": self.fraction,
            "n_feasible": self.n_feasible,
            "n_episodes": self.n_episodes,
        }


def _episode_feasible(ins: dict[int, set[int]], users: list[int]) -> bool:
    seen = {users[0]}
    for j in users[1:]:
        preds = ins.get(j)
        if preds is None or seen.isdisjoint(preds):
            return False
        seen.add(j)
    return True


def check_feasibility(graph: InferredGraph, episodes: Episodes) -> FeasibilityReport:
    """Fraction of episodes the graph can explain (local predecessor test)."""
    ins = graph.in_sets
    users, ptr = episodes.users.tolist(), episodes.ptr.tolist()
    flags = tuple(_episode_feasible(ins, users[lo:hi]) for lo, hi in zip(ptr, ptr[1:]))
    n_ok = sum(flags)
    total = len(episodes)
    fraction = n_ok / total if total else 1.0
    return FeasibilityReport(fraction, n_ok, total, flags)
