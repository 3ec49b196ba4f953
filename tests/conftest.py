import numpy as np
import pytest

from cemnet.trace import Episodes, trace_from_string

# Six-row toy trace: two originals (P1 by U1, P3 by U2); P4 reshares P2
# which reshares P1, so both episodes order three users.
T1_CSV = """pid,t,uid,rid
P1,920,U1,-1
P2,930,U2,P1
P3,935,U2,-1
P4,940,U3,P2
P5,945,U3,P3
P6,950,U1,P3
"""


@pytest.fixture
def t1():
    return trace_from_string(T1_CSV)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_episodes(seqs) -> Episodes:
    """CSR ``Episodes`` from ``(users, times)`` pairs, one per episode, rooted at r0, r1, ..."""
    seqs = list(seqs)
    lens = [len(users) for users, _ in seqs]
    return Episodes(
        np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
        np.array([u for users, _ in seqs for u in users], dtype=np.int32),
        np.array([t for _, times in seqs for t in times], dtype=np.float64),
        tuple(f"r{e}" for e in range(len(seqs))),
    )


def episode_lists(episodes: Episodes) -> list[tuple[tuple[int, ...], tuple[float, ...]]]:
    """``(users, times)`` tuples per episode, for reference loops."""
    ptr = episodes.ptr.tolist()
    users, times = episodes.users.tolist(), episodes.times.tolist()
    return [(tuple(users[a:b]), tuple(times[a:b])) for a, b in zip(ptr, ptr[1:])]


def random_episodes(rng, n_users=8, n_episodes=12, max_len=6) -> Episodes:
    """Episodes with distinct users and strictly increasing times."""
    seqs = []
    for _ in range(n_episodes):
        k = int(rng.integers(2, max_len + 1))
        users = rng.permutation(n_users)[:k]
        times = np.sort(rng.choice(np.arange(1000), size=k, replace=False))
        seqs.append(([int(u) for u in users], [float(t) for t in times]))
    return make_episodes(seqs)
