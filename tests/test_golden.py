"""Pinned output digests for Louvain, CEM-sbm and preprocessing.

The Louvain and CEM digests were recorded from the dict-of-dicts Louvain and
the loop ``threshold_graph`` that preceded the array versions, and the
``default20k`` CEM digests, which also hash the final community labels, from
the EM loop that ran Louvain in every iteration; the preprocessing digests
from the tuple/Counter/dict code that preceded the CSR arrays.  Any change
to labels, modularity bits, edges, scores, episodes, pair counts, covering
rows or their reduction fails here, so a rewrite must reproduce the old
outputs byte for byte, not merely as well.
"""

import hashlib

import numpy as np

from cemnet import baselines
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


def _edge_rows(edges) -> np.ndarray:
    """(E, 3) float rows ``(u, v, weight)``; an unweighted edge weighs 1."""
    return np.array([(e[0], e[1], e[2] if len(e) > 2 else 1.0) for e in edges],
                    dtype=np.float64).reshape(-1, 3)


def _edges_and_scores(graph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's ascending (E, 2) edge rows and their scores, 1.0 if unscored."""
    score = np.ones(graph.n_edges) if graph.score is None else graph.score
    return np.column_stack([graph.src, graph.dst]), score


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
        rows = _edge_rows(edges)
        res = cm.louvain(n, rows, seed=seed)
        out[name] = _sha(
            res.labels.astype(np.int64),
            np.float64(res.modularity),
            np.array(res.level_modularity, dtype=np.float64),
            np.float64(cm.modularity(n, rows, res.labels)),
        )
    return out


def _fit_digest(data, lam: float) -> str:
    state, graph = em.run_cem(data, "sbm", lam, seed=7)
    return _sha(
        *_edges_and_scores(graph),
        np.array([state.iteration, len(state.groups)], dtype=np.int64),
        np.array([state.params.alpha, state.params.beta, state.params.p_in,
                  state.params.q_out, state.delta_q], dtype=np.float64),
    )


def _labelled_fit_digest(data, lam: float) -> str:
    """The ``_fit_digest`` fields, then the final community labels as int64."""
    state, graph = em.run_cem(data, "sbm", lam, seed=7)
    return _sha(
        *_edges_and_scores(graph),
        np.array([state.iteration, len(state.groups)], dtype=np.int64),
        np.array([state.params.alpha, state.params.beta, state.params.p_in,
                  state.params.q_out, state.delta_q], dtype=np.float64),
        state.groups.astype(np.int64),
    )


def cem_digests(t1) -> dict[str, str]:
    small = simulate(SimConfig(n_users=40, n_blocks=3, n_events=6000, seed=5)).trace
    prep = em.preprocess(small)
    # most of these fits' Louvain refreshes see the previous iteration's graph
    default = em.preprocess(simulate(SimConfig()).trace.head(20_000))
    out = {}
    for lam in (1.0, 0.0):
        out[f"t1:sbm:{lam}"] = _fit_digest(t1, lam)
        out[f"sim40:sbm:{lam}"] = _fit_digest(prep, lam)
        out[f"default20k:sbm_labels:{lam}"] = _labelled_fit_digest(default, lam)
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
    "default20k:sbm_labels:1.0": "5fc374e34af139b14e2a34a4029e0500",
    "default20k:sbm_labels:0.0": "5c66517c205a42f04114c4950cac08e8",
}


def test_louvain_matches_recorded_digests():
    assert louvain_digests() == LOUVAIN_GOLDEN


def test_run_cem_sbm_matches_recorded_digest(t1):
    assert cem_digests(t1) == CEM_GOLDEN


# ---------------------------------------------------------------------------
# preprocessing and the baselines that share it: episodes, the pair table,
# the covering rows in order, the reduced covering, and the Saito kappa and
# Newman q bits


def _preprocess_traces(t1):
    small = simulate(SimConfig(n_users=40, n_blocks=3, n_events=6000, seed=5)).trace
    default = simulate(SimConfig()).trace.head(20_000)
    # sparse and wide: the covering reduction leaves dozens of components
    wide = simulate(SimConfig(n_users=150, n_blocks=3, p_intra=0.03, q_inter=0.004,
                              n_events=20_000, seed=3)).trace
    return {"t1": t1, "sim40": small, "default20k": default, "wide150": wide}


def _episodes_digest(episodes) -> str:
    """Per episode: root pid, NUL, users as int64, times as float64."""
    h = hashlib.sha256()
    ptr = episodes.ptr.tolist()
    for e, root_pid in enumerate(episodes.root_pids):
        h.update(root_pid.encode() + b"\0")
        h.update(episodes.users[ptr[e]:ptr[e + 1]].astype(np.int64).tobytes())
        h.update(episodes.times[ptr[e]:ptr[e + 1]].astype(np.float64).tobytes())
    return h.hexdigest()[:32]


def _covering_digest(system) -> str:
    meta = np.column_stack([system.episode_ids, system.targets]).astype(np.int64)
    return _sha(system.row_ptr.astype(np.int64), system.pair_ids.astype(np.int64),
                meta, np.int64(system.n_vars))


def _reduced_digest(reduced) -> str:
    h = hashlib.sha256()
    h.update(np.int64(reduced.n_vars).tobytes())
    h.update(np.asarray(reduced.forced_ones, dtype=np.int64).tobytes())
    for comp in reduced.components:
        h.update(b"|" + np.asarray(comp.var_ids, dtype=np.int64).tobytes())
        for row in comp.rows:
            h.update(b";" + np.flatnonzero(row).astype(np.int64).tobytes())
    return h.hexdigest()[:32]


def preprocess_digests(t1) -> dict[str, str]:
    out = {}
    for name, tr in _preprocess_traces(t1).items():
        prep = em.preprocess(tr)
        n = prep.n_users
        out[f"{name}:episodes"] = _episodes_digest(prep.episodes)
        out[f"{name}:table"] = _sha(prep.table.pairs.astype(np.int64), prep.table.m)
        out[f"{name}:covering"] = _covering_digest(prep.constraints)
        out[f"{name}:reduced"] = _reduced_digest(prep.reduced)
        saito = baselines.saito_em(prep.episodes, n, seed=7)
        out[f"{name}:saito"] = _sha(saito.kappa, np.int64(saito.iterations))
        newman = baselines.newman_em(prep.episodes, n, seed=7)
        out[f"{name}:newman"] = _sha(
            newman.q, newman.direct,
            np.array([newman.alpha, newman.beta, newman.rho]),
            np.int64(newman.iterations))
    return out


PREPROCESS_GOLDEN = {
    "t1:episodes": "fe6a4f39cde9d75a41544dd29d2febd7",
    "t1:table": "54fc7e3362ca14fee0fcacb7f499aafd",
    "t1:covering": "82cb3f8665d3c72b8c4a36898e76c133",
    "t1:reduced": "d710b27d1694dc7ebd90a6d535ec934f",
    "t1:saito": "0f0dfb1d45a07dcb7a9a664552d06322",
    "t1:newman": "ebddd4bd159ca51473d839be2a405b0d",
    "sim40:episodes": "62e3cf4546a025f80a56d3d3c0fb9a1a",
    "sim40:table": "5587ec7ca8e608a27656fd5ba13c531e",
    "sim40:covering": "6a55ca0f4a63387ecb90f348820bd07f",
    "sim40:reduced": "c253404158e0e86796be694ea4138128",
    "sim40:saito": "98aeaa38f204dc8fc373e5c472e76093",
    "sim40:newman": "dde6723a1da7775beb4e9dcf68b58a6d",
    "default20k:episodes": "7e8e2e4f5c13b6807c316294aaa43f16",
    "default20k:table": "29c6c6dd9df4040cedc63a32c9b4d304",
    "default20k:covering": "b38cafce9cd6e6457c85d7d14b69d59e",
    "default20k:reduced": "a3eb16ea946596a373be7b95dd5e692f",
    "default20k:saito": "3d07b41fde0d45d34b6b594d8661081a",
    "default20k:newman": "ea62cfa89ff48b4acc30251bfe4612e2",
    "wide150:episodes": "ecaf37fd048f38cf8f76d91038cc37b0",
    "wide150:table": "d1c53118c3b641988183444a90b2c71e",
    "wide150:covering": "d3ebd995219dce4050ae2d8e55ea8b58",
    "wide150:reduced": "54092869d3719856f94bae0c8d964e91",
    "wide150:saito": "0e6fd3873bcaba89627539f15c16b416",
    "wide150:newman": "fdf05b96dda433355bf9db6eb17cf7da",
}


def test_preprocessing_matches_recorded_digests(t1):
    assert preprocess_digests(t1) == PREPROCESS_GOLDEN


# ---------------------------------------------------------------------------
# graphs: the thresholded posterior under each prior shape, and the edges
# and scores of the four baselines, on the preprocessing traces


def _graph_digest(graph) -> str:
    return _sha(*_edges_and_scores(graph), np.int64(graph.n_edges))


def graph_digests(t1) -> dict[str, str]:
    out = {}
    for name, tr in _preprocess_traces(t1).items():
        prep = em.preprocess(tr)
        n = prep.n_users
        rng = np.random.default_rng(41)
        q = rng.uniform(size=prep.table.n_pairs)
        groups = rng.integers(0, 3, size=n)
        specs = {
            "none": None,
            "er_cold": ("er", 0.3),
            "er_hot": ("er", 0.7),
            "sbm": ("sbm", 0.8, 0.1, groups),
        }
        for key, spec in specs.items():
            graph = em.threshold_graph(prep.table, q, n, spec)
            out[f"{name}:threshold:{key}"] = _graph_digest(graph)
        out[f"{name}:star"] = _graph_digest(baselines.star_graph(prep.episodes, n))
        out[f"{name}:chain"] = _graph_digest(baselines.chain_graph(prep.episodes, n))
        saito = baselines.saito_em(prep.episodes, n, seed=7)
        out[f"{name}:saito_graph"] = _graph_digest(saito.graph)
        newman = baselines.newman_em(prep.episodes, n, seed=7)
        out[f"{name}:newman_graph"] = _graph_digest(newman.graph)
    return out


GRAPH_GOLDEN = {
    "t1:threshold:none": "6c49762f6dbee50cfc43dcdb3e5d4b8b",
    "t1:threshold:er_cold": "6c49762f6dbee50cfc43dcdb3e5d4b8b",
    "t1:threshold:er_hot": "83cd33e90750b66eb5b22762338742dd",
    "t1:threshold:sbm": "6c49762f6dbee50cfc43dcdb3e5d4b8b",
    "t1:star": "372337beccfe7f12afcb541ec4f01cd0",
    "t1:chain": "2958b49522a2863d6685ad415e44fdad",
    "t1:saito_graph": "af5570f5a1810b7af78caf4bc70a660f",
    "t1:newman_graph": "9ba9adb0034d127f09e1a40723969f79",
    "sim40:threshold:none": "34b7a52698a3cf5c78a350be0f45a6fd",
    "sim40:threshold:er_cold": "34b7a52698a3cf5c78a350be0f45a6fd",
    "sim40:threshold:er_hot": "01ba61ac005684f67be0489377c9a251",
    "sim40:threshold:sbm": "2459041783a27ba232461f0396396feb",
    "sim40:star": "252425192523f4e111a7d7bdae795b19",
    "sim40:chain": "16b7810ef13c23857f0d6c9ec8411d6c",
    "sim40:saito_graph": "af5570f5a1810b7af78caf4bc70a660f",
    "sim40:newman_graph": "dc969bba91f096a67f7e1536c05f97b9",
    "default20k:threshold:none": "3c46814dcdf4b299376f4e012a5a7d3d",
    "default20k:threshold:er_cold": "3c46814dcdf4b299376f4e012a5a7d3d",
    "default20k:threshold:er_hot": "1fb0c43bcf53b1c008ad2d03c4419c21",
    "default20k:threshold:sbm": "11c26efa2e5a5c7182caac04e63230f4",
    "default20k:star": "641c23f89472731c3d05adc809601bd3",
    "default20k:chain": "c6213370152f3b9a9693084d0fc1a5dc",
    "default20k:saito_graph": "af5570f5a1810b7af78caf4bc70a660f",
    "default20k:newman_graph": "9ec4ffa456b49f90c3a01db98acabcbe",
    "wide150:threshold:none": "9be9f117e787ef4c4ebb1fef0126a3a9",
    "wide150:threshold:er_cold": "9be9f117e787ef4c4ebb1fef0126a3a9",
    "wide150:threshold:er_hot": "9861cb9d8d2055d601385e208bae6e26",
    "wide150:threshold:sbm": "601541f463b7a0066165199c6dbb39f4",
    "wide150:star": "0776fb1a7920607430b2d2b1394a7912",
    "wide150:chain": "3ce5f429bdd77bd68324de3c8c22c23a",
    "wide150:saito_graph": "89e380ea1c35c35b357ab39d1acc4d80",
    "wide150:newman_graph": "ea5727a969404c8840d41666a85a2bdc",
}


def test_graphs_match_recorded_digests(t1):
    assert graph_digests(t1) == GRAPH_GOLDEN
