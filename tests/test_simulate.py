import numpy as np
import pytest

from cemnet import simulate as sim
from cemnet.constraints import check_feasibility
from cemnet.trace import build_episodes, pair_counts


def test_config_validation():
    with pytest.raises(ValueError):
        sim.SimConfig(p_intra=1.5)
    with pytest.raises(ValueError):
        sim.SimConfig(n_events=0)
    with pytest.raises(ValueError):
        sim.SimConfig(post_rate=(-0.1, 0.2))
    with pytest.raises(ValueError):
        sim.SimConfig(post_rate=(0.0, 0.0), repost_rate=(0.0, 0.0))
    # the bound is checked before anything is drawn; only the config is built
    assert sim.SimConfig(n_users=sim.MAX_USERS).n_users == sim.MAX_USERS
    with pytest.raises(ValueError, match="n_users must be at most"):
        sim.SimConfig(n_users=sim.MAX_USERS + 1)


def test_empty_block_sizes_are_no_partition(tmp_path, capsys):
    """``[]`` is refused like any other non-partition, not read as unset."""
    from cemnet.cli import main

    with pytest.raises(ValueError, match=r"block sizes \[\] do not partition 100 users"):
        sim.SimConfig(block_sizes=[])
    config = tmp_path / "config.json"
    config.write_text('{"block_sizes": []}\n')
    rc = main(["simulate", "--config", str(config),
               "--out-trace", str(tmp_path / "t.csv"),
               "--out-truth", str(tmp_path / "g.csv"),
               "--out-labels", str(tmp_path / "l.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(config) in err and "block sizes [] do not partition" in err
    assert not (tmp_path / "t.csv").exists()


def test_config_json_roundtrip(tmp_path):
    cfg = sim.SimConfig(seed=9, n_events=123, post_rate=(0.01, 0.02))
    path = tmp_path / "sim.json"
    cfg.to_json(path)
    back = sim.SimConfig.from_json(path)
    assert back == cfg


def test_sbm_graph_complete_blocks():
    cfg = sim.SimConfig(
        n_users=6, n_blocks=2, block_sizes=[3, 3], p_intra=1.0, q_inter=0.0
    )
    g, labels = sim.generate_sbm_graph(cfg, np.random.default_rng(0))
    assert list(labels) == [0, 0, 0, 1, 1, 1]
    expected = {
        (i, j)
        for i in range(6)
        for j in range(6)
        if i != j and labels[i] == labels[j]
    }
    assert g.edges == expected


def test_sbm_graph_flat_prior_density():
    p = 0.05
    n = 100
    counts = []
    for seed in range(10):
        cfg = sim.SimConfig(n_users=n, p_intra=p, q_inter=p)
        g, _ = sim.generate_sbm_graph(cfg, np.random.default_rng(seed))
        counts.append(g.n_edges)
    total_pairs = n * (n - 1)
    sigma = np.sqrt(total_pairs * p * (1 - p))
    for c in counts:
        assert abs(c - total_pairs * p) <= 4 * sigma
    assert abs(np.mean(counts) - total_pairs * p) <= 3 * sigma / np.sqrt(10)


def test_default_truth_scale():
    for seed in (1, 2, 3, 4, 5):
        cfg = sim.SimConfig(seed=seed)
        ss = np.random.SeedSequence(seed)
        g, labels = sim.generate_sbm_graph(
            cfg, np.random.default_rng(ss.spawn(1)[0])
        )
        assert 100 <= g.n_edges <= 230
        assert len(np.unique(labels)) == 7


def test_events_poisson_interarrivals():
    rate = 0.05
    cfg = sim.SimConfig(
        n_users=1, n_blocks=1, n_events=10_000,
        post_rate=(rate, rate), repost_rate=(0.0, 0.0),
    )
    times, uids, kinds = sim.generate_events(cfg, np.random.default_rng(4))
    assert np.all(kinds == sim.POST)
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert abs(gaps.mean() - 1.0 / rate) / (1.0 / rate) < 0.05


def test_events_zero_repost_rates():
    cfg = sim.SimConfig(n_events=5_000, repost_rate=(0.0, 0.0))
    _, _, kinds = sim.generate_events(cfg, np.random.default_rng(1))
    assert np.all(kinds == sim.POST)


def test_two_user_forced_repost():
    from cemnet.graph import InferredGraph

    cfg = sim.SimConfig(n_users=2, n_blocks=1, n_events=2)
    graph = InferredGraph(2, [(0, 1)])
    labels = np.zeros(2, dtype=int)
    events = (
        np.array([1.0, 2.0]),
        np.array([0, 1]),
        np.array([sim.POST, sim.REPOST]),
    )
    out = sim.run_diffusion(graph, labels, events, cfg, np.random.default_rng(0))
    assert out.n_posts == 1 and out.n_reposts == 1
    reposts = [r for r in out.trace.records if r.rid is not None]
    assert len(reposts) == 1
    # the repost's root is u0000's post, so u0000 heads its episode
    eps = build_episodes(out.trace)
    assert len(eps) == 1 and out.trace.users[eps.users[0]] == "u0000"
    assert eps.root_pids[0] == reposts[0].rid
    assert out.trace.pid[out.trace.root].tolist() == [reposts[0].rid] * 2


def test_trace_fully_feasible_against_truth():
    out = sim.simulate(sim.SimConfig(seed=3, n_events=30_000))
    eps = build_episodes(out.trace)
    assert check_feasibility(out.truth_graph, eps).fraction == 1.0


def test_truth_edge_coverage_at_full_length():
    out = sim.simulate(sim.SimConfig(seed=1))
    eps = build_episodes(out.trace)
    table = pair_counts(eps, out.trace.n_users)
    covered = sum(
        1 for e in out.truth_graph.edges if table.ids(*e) >= 0
    )
    assert covered / out.truth_graph.n_edges >= 0.99


def test_episode_count_scale():
    out = sim.simulate(sim.SimConfig(seed=1))
    eps = build_episodes(out.trace)
    assert 500 <= len(eps) <= 8_000


def test_simulation_deterministic():
    a = sim.simulate(sim.SimConfig(seed=11, n_events=10_000))
    b = sim.simulate(sim.SimConfig(seed=11, n_events=10_000))
    assert a.trace.records == b.trace.records
    assert a.truth_graph.edges == b.truth_graph.edges
    c = sim.simulate(sim.SimConfig(seed=12, n_events=10_000))
    assert c.trace.records != a.trace.records


def test_timestamps_nondecreasing_integer_ticks():
    out = sim.simulate(sim.SimConfig(seed=5, n_events=5_000))
    ts = out.trace.t.tolist()
    assert all(a <= b for a, b in zip(ts, ts[1:]))
    assert all(float(t).is_integer() for t in ts)


def test_rewire_edges_preserves_count():
    out = sim.simulate(sim.SimConfig(seed=2, n_events=10_000))
    g = out.truth_graph
    rewired = sim.rewire_edges(g, 0.5, seed=7)
    assert rewired.n_edges == g.n_edges
    overlap = len(rewired.edges & g.edges)
    assert overlap <= g.n_edges - int(0.5 * g.n_edges) + 2
    assert all(i != j for i, j in rewired.edges)
