"""Pinned output digests for Louvain and CEM-sbm.

The digests were recorded from the dict-of-dicts Louvain and the loop
``threshold_graph`` that preceded the array versions.  Any change to labels,
modularity bits, edges or scores fails here, so a rewrite of either function
must reproduce the old outputs byte for byte, not merely as well.
"""

import hashlib

import numpy as np

from cemnet import community as cm
from cemnet import em
from cemnet.simulate import SimConfig, simulate


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:32]


def _random_edges(rng, n, p, weight=None):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                edges.append((i, j) if weight is None else (i, j, weight(rng)))
    return edges


def _graph_cases():
    """(name, n_nodes, edges, seed): every Louvain input shape the code meets."""
    rng = np.random.default_rng(2023)
    cases = [
        ("empty", 6, [], 0),
        ("sparse40", 40, _random_edges(rng, 40, 0.08), 3),
        ("dense30", 30, _random_edges(rng, 30, 0.4), 11),
    ]
    truth = np.repeat(np.arange(3), 20)
    planted = [(i, j) for i in range(60) for j in range(i + 1, 60)
               if rng.uniform() < (0.3 if truth[i] == truth[j] else 0.02)]
    cases.append(("planted60", 60, planted, 7))
    cases.append(("halves50", 50, _random_edges(
        rng, 50, 0.1, lambda r: 0.5 * int(r.integers(1, 7))), 5))
    cases.append(("floats35", 35, _random_edges(
        rng, 35, 0.15, lambda r: float(r.uniform(0.05, 3.0))), 9))
    loops = _random_edges(rng, 30, 0.1) + [(k, k, 1.0 + k % 3) for k in range(0, 30, 4)]
    cases.append(("selfloops30", 30, loops, 2))
    # two cliques, a path, and isolated nodes 12..14
    parts = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    parts += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    parts += [(8, 9), (9, 10), (10, 11)]
    cases.append(("disconnected15", 15, parts, 4))
    dup = _random_edges(rng, 25, 0.12)
    cases.append(("duplicates25", 25, dup + dup[::3] + [(j, i) for i, j in dup[::5]], 8))
    cases.append(("star20", 20, [(0, k) for k in range(1, 20)], 1))
    cases.append(("sparse150", 150, _random_edges(rng, 150, 0.03), 13))
    return cases


def louvain_digests() -> dict[str, str]:
    out = {}
    for name, n, edges, seed in _graph_cases():
        res = cm.louvain(n, edges, seed=seed)
        out[name] = _sha(
            res.labels.astype(np.int64),
            np.float64(res.modularity),
            np.array(res.level_modularity, dtype=np.float64),
            np.float64(cm.modularity(n, edges, res.labels)),
        )
    return out


def _fit_digest(data, lam: float) -> str:
    state, graph = em.run_cem(data, "sbm", lam, seed=7)
    edges = sorted(graph.edges)
    return _sha(
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        np.array([graph.score_of(i, j) for i, j in edges], dtype=np.float64),
        np.array([state.iteration, len(state.groups)], dtype=np.int64),
        np.array([state.params.alpha, state.params.beta, state.params.p_in,
                  state.params.q_out, state.delta_q], dtype=np.float64),
    )


def cem_digests(t1) -> dict[str, str]:
    small = simulate(SimConfig(n_users=40, n_blocks=3, n_events=6000, seed=5)).trace
    prep = em.preprocess(small)
    out = {}
    for lam in (1.0, 0.0):
        out[f"t1:sbm:{lam}"] = _fit_digest(t1, lam)
        out[f"sim40:sbm:{lam}"] = _fit_digest(prep, lam)
    return out


LOUVAIN_GOLDEN = {
    "empty": "29cf49149a36caee4b2d1cc1475d080b",
    "sparse40": "2b13394ef90e8a9be21352fd408fa62c",
    "dense30": "941367b021470179700895a6c7a1802c",
    "planted60": "89d1a288a681e7e6179c233085e870b0",
    "halves50": "31163f87379e7f230a6e08a432305d33",
    "floats35": "a446b880383aa2a887dfe9de1d52c530",
    "selfloops30": "5d2ce70e26a74c50ead8e29ccc1090b8",
    "disconnected15": "74ae92286d9763b764f6e719276681d6",
    "duplicates25": "42714d940f4a2ea7c5a15afb50023a72",
    "star20": "d81bfb50e59a9abbe66f6ae0c6b45c7b",
    "sparse150": "a6f18bf59c5ddcae111361dd3c0d22a0",
}

CEM_GOLDEN = {
    "t1:sbm:1.0": "2afb8bc580db31dfe69159032a9e40e6",
    "t1:sbm:0.0": "df39c3551cc643a7940b08622c502f96",
    "sim40:sbm:1.0": "55d3cdb058939e9cd7b7b409b41439c2",
    "sim40:sbm:0.0": "9d75448f82e0d9e073b584a2683b870b",
}


def test_louvain_matches_recorded_digests():
    assert louvain_digests() == LOUVAIN_GOLDEN


def test_run_cem_sbm_matches_recorded_digest(t1):
    assert cem_digests(t1) == CEM_GOLDEN
