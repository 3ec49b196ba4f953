import hashlib
import json
import subprocess
import sys

import pytest

from cemnet.cli import main

SIM_ARGS = ["simulate", "--seed", "5", "--n-events", "15000"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulated dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(SIM_ARGS + [
        "--out-trace", str(root / "trace.csv"),
        "--out-truth", str(root / "truth.csv"),
        "--out-labels", str(root / "labels.csv"),
    ])
    assert rc == 0
    return root


def test_simulate_outputs_and_manifest(workdir):
    for name in ("trace.csv", "truth.csv", "labels.csv"):
        assert (workdir / name).exists()
        manifest = json.loads((workdir / (name + ".manifest.json")).read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        assert manifest["version"]


def test_infer_roundtrip_and_determinism(workdir):
    args = [
        "infer", "--trace", str(workdir / "trace.csv"), "--prior", "sbm",
        "--lambda", "1.0", "--seed", "7",
        "--out-state", str(workdir / "state.json"),
        "--out-scores", str(workdir / "scores.csv"),
    ]
    assert main(args + ["--out-graph", str(workdir / "g1.csv")]) == 0
    assert main(args + ["--out-graph", str(workdir / "g2.csv")]) == 0
    assert (workdir / "g1.csv").read_bytes() == (workdir / "g2.csv").read_bytes()
    state = json.loads((workdir / "state.json").read_text())
    assert state["prior"] == "sbm"
    assert 0.0 <= state["alpha"] <= 1.0
    assert state["feasibility"] == 1.0
    assert (workdir / "scores.csv").exists()



OUTPUT_GOLDEN = {
    "graph.csv": "95396437f4c1ebd0804516bd09532584",
    "scores.csv": "7d3a11bd04f772c63a4291f4875f1785",
    "report.json": "f18d3fb5473c6a96c8bee9d2723de52e",
    "stats.json": "896981806f12d704455a7005301db31b",
    "star.csv": "7225252a78e22459c0d7760deed43946",
    "chain.csv": "3aecf46ce7420baa0aa737f127670406",
    "saito.csv": "09e10daa5abfa2caee06721719c55218",
    "newman.csv": "c7ecd11dec7ffd595da6c93e3bf4c7dd",
}


def test_output_bytes_match_recorded_digests(workdir, tmp_path):
    """Graph, scores, baseline and report files byte for byte.

    The digests were recorded from the tuple-and-dict graph that preceded
    the array-backed one.
    """
    trace = str(workdir / "trace.csv")
    out = {name: str(tmp_path / name) for name in (
        "graph.csv", "scores.csv", "report.json", "stats.json",
        "star.csv", "chain.csv", "saito.csv", "newman.csv")}
    assert main(["infer", "--trace", trace, "--prior", "er", "--seed", "7",
                 "--out-graph", out["graph.csv"],
                 "--out-scores", out["scores.csv"]]) == 0
    assert main(["evaluate", "--inferred", out["graph.csv"],
                 "--truth", str(workdir / "truth.csv"),
                 "--scores", out["scores.csv"], "--trace", trace,
                 "--truth-labels", str(workdir / "labels.csv"),
                 "--out", out["report.json"]]) == 0
    assert main(["stats", "--graph", str(workdir / "truth.csv"), "--trace", trace,
                 "--out", out["stats.json"]]) == 0
    for method in ("star", "chain", "saito", "newman"):
        assert main(["baseline", "--method", method, "--trace", trace,
                     "--out-graph", out[f"{method}.csv"]]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:32]
               for name in out}
    assert digests == OUTPUT_GOLDEN

def test_baseline_methods(workdir):
    for method in ("star", "chain", "saito", "newman"):
        out = workdir / f"{method}.csv"
        rc = main([
            "baseline", "--method", method,
            "--trace", str(workdir / "trace.csv"),
            "--out-graph", str(out),
        ])
        assert rc == 0
        assert out.exists()


def test_evaluate_report(workdir):
    rc = main([
        "evaluate",
        "--inferred", str(workdir / "g1.csv"),
        "--truth", str(workdir / "truth.csv"),
        "--scores", str(workdir / "scores.csv"),
        "--trace", str(workdir / "trace.csv"),
        "--truth-labels", str(workdir / "labels.csv"),
        "--out", str(workdir / "report.json"),
    ])
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    for key in ("precision", "recall", "f1", "auc", "feasibility",
                "network", "community"):
        assert key in report
    assert report["feasibility"] == 1.0
    # byte-identical on rerun
    first = (workdir / "report.json").read_bytes()
    main([
        "evaluate", "--inferred", str(workdir / "g1.csv"),
        "--truth", str(workdir / "truth.csv"),
        "--scores", str(workdir / "scores.csv"),
        "--trace", str(workdir / "trace.csv"),
        "--truth-labels", str(workdir / "labels.csv"),
        "--out", str(workdir / "report2.json"),
    ])
    assert (workdir / "report2.json").read_bytes() == first


def test_evaluate_names_offending_uid(workdir, capsys):
    bad = workdir / "bad_graph.csv"
    bad.write_text("src,dst,q\nu0001,ghost,1.0\n")
    rc = main([
        "evaluate", "--inferred", str(bad),
        "--truth", str(workdir / "truth.csv"),
        "--trace", str(workdir / "trace.csv"),
        "--out", str(workdir / "never.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ghost" in err and str(bad) in err and "row 2" in err


def test_missing_file_is_usage_error(workdir, capsys):
    rc = main([
        "infer", "--trace", str(workdir / "nope.csv"), "--prior", "er",
        "--out-graph", str(workdir / "x.csv"),
    ])
    assert rc == 2


def test_malformed_trace_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("pid,t,uid,rid\nP1,10,U1,MISSING\n")
    rc = main([
        "feascheck", "--graph", str(bad), "--trace", str(bad),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2


def test_repost_before_its_parent_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "early.csv"
    bad.write_text("pid,t,uid,rid\np1,10,a,-1\np2,5,b,p1\np3,12,c,p2\n")
    rc = main(["infer", "--trace", str(bad), "--prior", "er",
               "--out-graph", str(tmp_path / "g.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'p2'" in err and "'p1'" in err
    assert not (tmp_path / "g.csv").exists()


def test_malformed_graph_is_usage_error(workdir, tmp_path):
    bad = tmp_path / "bad_graph.csv"
    bad.write_text("nope,header\n1,2\n")
    rc = main([
        "stats", "--graph", str(bad), "--trace", str(workdir / "trace.csv"),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2


@pytest.mark.parametrize("row", ["u0001", "u0001,0,extra", "u0001,blue", "u0001,-1"])
def test_malformed_labels_is_usage_error(workdir, tmp_path, capsys, row):
    bad = tmp_path / "bad_labels.csv"
    bad.write_text(f"uid,community\n{row}\n")
    rc = main([
        "evaluate", "--inferred", str(workdir / "truth.csv"),
        "--truth", str(workdir / "truth.csv"),
        "--trace", str(workdir / "trace.csv"),
        "--truth-labels", str(bad),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "row 2" in err


def test_stats_and_feascheck(workdir):
    rc = main([
        "stats", "--graph", str(workdir / "truth.csv"),
        "--trace", str(workdir / "trace.csv"),
        "--out", str(workdir / "stats.json"),
    ])
    assert rc == 0
    stats = json.loads((workdir / "stats.json").read_text())
    assert stats["n_edges"] > 0
    rc = main([
        "feascheck", "--graph", str(workdir / "truth.csv"),
        "--trace", str(workdir / "trace.csv"),
        "--out", str(workdir / "feas.json"),
    ])
    assert rc == 0
    feas = json.loads((workdir / "feas.json").read_text())
    assert feas["fraction"] == 1.0


def test_dump_lp_flag(workdir):
    rc = main([
        "infer", "--trace", str(workdir / "trace.csv"), "--prior", "er",
        "--seed", "3", "--max-iters", "2",
        "--dump-lp", str(workdir / "problem.lp"),
        "--out-graph", str(workdir / "g3.csv"),
    ])
    assert rc == 0
    assert "Maximize" in (workdir / "problem.lp").read_text()[:200]


def test_version_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "cemnet.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_simulate_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"n_user": 5}\n')
    rc = main([
        "simulate", "--config", str(config),
        "--out-trace", str(tmp_path / "t.csv"),
        "--out-truth", str(tmp_path / "g.csv"),
        "--out-labels", str(tmp_path / "l.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n_user" in err and str(config) in err
    assert not (tmp_path / "t.csv").exists()
