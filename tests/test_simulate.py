import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemnet import simulate as sim
from cemnet.constraints import check_feasibility
from cemnet.graph import write_graph_csv, write_labels_csv
from cemnet.trace import build_episodes, pair_counts, trace_to_csv

# the N=500 shape of the benchmark's sweep workload (perfbench/inputs.py)
SWEEP_SHAPE = {"n_users": 500, "block_sizes": [72, 72, 71, 71, 71, 71, 72],
               "p_intra": 0.012, "q_inter": 0.0014,
               "post_rate": (0.0035, 0.0035), "repost_rate": (0.09, 0.09)}

# sha256[:32] of the trace, truth and labels CSVs, recorded from the
# simulator that drew each feed pick by its own ``Generator.integers`` call
EDGE_CONFIG_GOLDEN = {
    # every pick is integers(1), which consumes no draw
    "capacity1": ({"feed_capacity": 1, "n_events": 20_000, "seed": 3},
                  ("5fce8d976808beb3f0f12725a7746ba1", "a44fd279831e9c688de8945d1a1ed84f",
                   "a4f7dc5b95fee2ff331a9b1824f5f7c3")),
    "capacity3": ({"feed_capacity": 3, "n_events": 20_000, "seed": 3},
                  ("fe3e604826ca9fe44dbff17c8a0bf0a4", "a44fd279831e9c688de8945d1a1ed84f",
                   "a4f7dc5b95fee2ff331a9b1824f5f7c3")),
    "sweep20k": ({**SWEEP_SHAPE, "n_events": 20_000, "seed": 3},
                 ("77b4ac35517e84bbf92ecf16645a7f55", "a057de2aa5d363d29c04015f0e5fb070",
                  "2dc32ef66b01cbf65976dbe15d348395")),
    # CI's sparse many-user config
    "sparse2000": ({"n_users": 2000, "n_blocks": 7, "n_events": 4000, "seed": 5},
                   ("49df0654d3b62fe458b61e4f13b2b509", "bb254b522ee8420887d46261964e8687",
                    "e9f3c1666e2f5615d87719f9e983995f")),
}


def test_config_validation():
    with pytest.raises(ValueError):
        sim.SimConfig(p_intra=1.5)
    with pytest.raises(ValueError):
        sim.SimConfig(n_events=0)
    with pytest.raises(ValueError):
        sim.SimConfig(post_rate=(-0.1, 0.2))
    with pytest.raises(ValueError):
        sim.SimConfig(post_rate=(0.0, 0.0), repost_rate=(0.0, 0.0))
    # reposts alone never start: nothing is in any feed
    with pytest.raises(ValueError, match="post_rate must allow a positive rate"):
        sim.SimConfig(post_rate=(0.0, 0.0))
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
    assert g.edges == tuple(sorted(expected))


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
    reposts = [rid for _, _, _, rid in out.trace.records if rid is not None]
    assert len(reposts) == 1
    # the repost's root is u0000's post, so u0000 heads its episode
    eps = build_episodes(out.trace)
    assert len(eps) == 1 and out.trace.users[eps.users[0]] == "u0000"
    assert eps.root_pids[0] == reposts[0]
    assert out.trace.pid[out.trace.root].tolist() == [reposts[0]] * 2


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
    overlap = len(set(rewired.edges) & set(g.edges))
    assert overlap <= g.n_edges - int(0.5 * g.n_edges) + 2
    assert all(i != j for i, j in rewired.edges)


@pytest.mark.parametrize("name", sorted(EDGE_CONFIG_GOLDEN))
def test_edge_configs_match_recorded_digests(tmp_path, name):
    """Configs the CLI golden's seed-5 default does not reach, byte for byte."""
    kwargs, expected = EDGE_CONFIG_GOLDEN[name]
    out = sim.simulate(sim.SimConfig(**kwargs))
    files = [tmp_path / f for f in ("trace.csv", "truth.csv", "labels.csv")]
    trace_to_csv(out.trace, files[0])
    write_graph_csv(out.truth_graph, out.trace.users, files[1])
    write_labels_csv(out.truth_labels, out.trace.users, files[2])
    assert tuple(hashlib.sha256(f.read_bytes()).hexdigest()[:32] for f in files) == expected


def test_bounded_integers_match_numpy_draw_for_draw():
    """The block-read picks equal ``Generator.integers(n)``, call for call."""
    bounds = [1, 2, 3, 10, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32]
    ns = [bounds[k] for k in np.random.default_rng(2024).integers(len(bounds),
                                                                 size=5 * sim._BLOCK)]
    # only n == 1 draws no word, so these calls read at least four blocks
    assert sum(n > 1 for n in ns) >= 4 * sim._BLOCK
    ours, numpys = np.random.default_rng(77), np.random.default_rng(77)
    for rng in (ours, numpys):
        # an odd number of uint32 draws leaves half a 64-bit output buffered
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    integers = sim._bounded_integers(ours)
    assert [integers(n) for n in ns] == [int(numpys.integers(n)) for n in ns]
    # numpy draws a wider bound from 64-bit outputs: a stream this does not read
    for n in (0, 2**32 + 1):
        with pytest.raises(ValueError, match="outside 1..2"):
            integers(n)


@settings(max_examples=30, deadline=None)
@given(n_users=st.integers(1, 30), feed_capacity=st.sampled_from([1, 2, 4]),
       n_events=st.integers(1, 2_000), p_intra=st.sampled_from([0.0, 0.2, 1.0]),
       post_rate=st.sampled_from([(0.001, 0.006), (0.05, 0.05)]),
       seed=st.integers(0, 2**32 - 1))
def test_diffusion_counts_add_up(n_users, feed_capacity, n_events, p_intra, post_rate, seed):
    """Every event is a row or a skip, a repost follows its parent, and the
    truth explains every episode: the trace is feasible by construction."""
    cfg = sim.SimConfig(n_users=n_users, n_blocks=min(n_users, 3), p_intra=p_intra,
                        q_inter=0.05, feed_capacity=feed_capacity, n_events=n_events,
                        post_rate=post_rate, seed=seed)
    try:
        out = sim.simulate(cfg)
    except sim.ConfigError:
        # refused only when the event stream holds no post
        events = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
        assert not np.any(sim.generate_events(cfg, events)[2] == sim.POST)
        return
    trace = out.trace
    assert out.n_posts + out.n_reposts == len(trace.pid)
    assert out.n_posts + out.n_reposts + out.n_skipped == n_events
    reposts = np.flatnonzero(trace.parent >= 0)
    assert len(reposts) == out.n_reposts
    assert np.all(trace.parent[reposts] < reposts)
    assert check_feasibility(out.truth_graph, build_episodes(trace)).fraction == 1.0
