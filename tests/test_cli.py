import hashlib
import json
import os
import stat
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cemnet import cli
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


def test_manifest_runtime_is_a_monotonic_clock_difference(tmp_path, monkeypatch):
    # a module without time.time: the run may read the monotonic clock only
    clock = iter([100.0, 102.25])
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--seed", "5", "--n-events", "2000", "--out-trace", str(out),
                 "--out-truth", str(tmp_path / "truth.csv"),
                 "--out-labels", str(tmp_path / "labels.csv")]) == 0
    manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
    assert manifest["runtime_seconds"] == 2.25


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
    "trace.csv": "9ad3a1872a70f5db32fd53aea992e26b",
    "truth.csv": "8266a322fe6cf5c941ef6bbc45436106",
    "labels.csv": "8b86698417f2dfe76614660aeb7a8394",
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
    """Simulator, graph, scores, baseline and report files byte for byte.

    The graph, score, baseline and report digests were recorded from the
    tuple-and-dict graph that preceded the array-backed one; the simulator's
    trace, truth and labels digests from the per-row ``TraceRecord`` trace
    that preceded the columnar one.
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
    files = {name: tmp_path / name for name in out}
    files.update({name: workdir / name for name in ("trace.csv", "truth.csv", "labels.csv")})
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()[:32]
               for name, path in files.items()}
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


BAD_BYTES = b"P2,2,U\xff2,P1\n"


def test_non_utf8_trace_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bytes.csv"
    bad.write_bytes(b"pid,t,uid,rid\nP1,1,U1,-1\n\n" + BAD_BYTES)
    rc = main(["infer", "--trace", str(bad), "--prior", "er",
               "--out-graph", str(tmp_path / "g.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "row 4: byte 0xff is not UTF-8" in err


def test_non_utf8_graph_is_usage_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bytes_graph.csv"
    bad.write_bytes(b"src,dst,q\nu0001,u0002,1.0\nu0002,u\xff,1.0\n")
    rc = main(["feascheck", "--graph", str(bad), "--trace", str(workdir / "trace.csv"),
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "row 3: byte 0xff is not UTF-8" in err


def test_non_utf8_labels_is_usage_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bytes_labels.csv"
    bad.write_bytes(b"uid,community\n\xfe0001,0\n")
    rc = main(["evaluate", "--inferred", str(workdir / "truth.csv"),
               "--truth", str(workdir / "truth.csv"),
               "--trace", str(workdir / "trace.csv"),
               "--truth-labels", str(bad), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "row 2: byte 0xfe is not UTF-8" in err


@pytest.mark.parametrize("prior", ["er", "sbm"])
def test_one_user_trace_is_usage_error(workdir, tmp_path, capsys, prior):
    one = tmp_path / "one.csv"
    one.write_text("pid,t,uid,rid\nP1,1,U1,-1\nP2,2,U1,P1\n")
    # the check follows --head: the workdir trace's first row has one user
    for trace, head in ((one, "0"), (workdir / "trace.csv", "1")):
        rc = main(["infer", "--trace", str(trace), "--prior", prior, "--head", head,
                   "--out-graph", str(tmp_path / "g.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(trace) in err and "1 user" in err
        assert not (tmp_path / "g.csv").exists()


def test_one_user_trace_fails_only_newman(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("pid,t,uid,rid\nP1,1,U1,-1\nP2,2,U1,P1\n")
    for method in ("star", "chain", "saito", "newman"):
        rc = main(["baseline", "--method", method, "--trace", str(one),
                   "--out-graph", str(tmp_path / f"{method}.csv")])
        err = capsys.readouterr().err
        if method == "newman":
            assert rc == 2 and str(one) in err and "1 user" in err
            assert not (tmp_path / "newman.csv").exists()
        else:
            assert rc == 0 and (tmp_path / f"{method}.csv").read_text() == "src,dst,q\n"


def test_negative_head_is_usage_error(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--method", "star", "--trace", str(workdir / "trace.csv"),
              "--head", "-1", "--out-graph", str(tmp_path / "g.csv")])
    assert exc.value.code == 2
    assert "--head" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def _required_args(command, workdir, out):
    """The file arguments each subcommand needs, writing under ``out``."""
    trace, truth = str(workdir / "trace.csv"), str(workdir / "truth.csv")
    return {
        "simulate": ["--n-events", "300", "--out-trace", str(out / "t.csv"),
                     "--out-truth", str(out / "g.csv"), "--out-labels", str(out / "l.csv")],
        "infer": ["--trace", trace, "--prior", "er", "--max-iters", "2",
                  "--out-graph", str(out / "g.csv"), "--out-state", str(out / "s.json")],
        "baseline": ["--method", "saito", "--trace", trace, "--out-graph", str(out / "g.csv")],
        "evaluate": ["--inferred", truth, "--truth", truth, "--trace", trace,
                     "--out", str(out / "r.json")],
        "stats": ["--graph", truth, "--trace", trace, "--out", str(out / "r.json")],
        "feascheck": ["--graph", truth, "--trace", trace, "--out", str(out / "r.json")],
    }[command]


@pytest.mark.parametrize("command,flag,value", [
    *[(command, "--seed", "-1") for command in
      ("simulate", "infer", "baseline", "evaluate", "stats", "feascheck")],
    ("simulate", "--seed", str(2**63)),
    ("simulate", "--n-events", "-5"),
    ("simulate", "--n-events", "0"),
    ("infer", "--max-iters", "0"),
    ("infer", "--lambda", "nan"),
    ("infer", "--lambda", "1.5"),
    ("infer", "--lambda", "-0.1"),
    ("infer", "--beta-fixed", "2"),
    ("infer", "--beta-fixed", "nan"),
    ("infer", "--epsilon", "-1"),
    ("infer", "--epsilon", "inf"),
    ("infer", "--epsilon", "nan"),
])
def test_numeric_flag_out_of_range_is_usage_error(workdir, tmp_path, capsys,
                                                   command, flag, value):
    argv = [command, *_required_args(command, workdir, tmp_path), flag, value]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# every flag that names an input file, per subcommand
INPUT_FLAGS = [
    ("simulate", "--config"), ("infer", "--trace"), ("baseline", "--trace"),
    *[("evaluate", flag) for flag in
      ("--trace", "--inferred", "--truth", "--scores", "--truth-labels")],
    ("stats", "--trace"), ("stats", "--graph"),
    ("feascheck", "--trace"), ("feascheck", "--graph"),
]


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command,flag", INPUT_FLAGS)
def test_unreadable_input_file_is_usage_error(workdir, tmp_path, capsys, command, flag, kind):
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, *_required_args(command, workdir, out)]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err
    assert not list(out.iterdir())


# every flag that names an output file, per subcommand
OUTPUT_FLAGS = [
    *[("simulate", flag) for flag in ("--out-trace", "--out-truth", "--out-labels")],
    *[("infer", flag) for flag in ("--out-graph", "--out-state", "--out-scores", "--dump-lp")],
    ("baseline", "--out-graph"),
    *[(command, "--out") for command in ("evaluate", "stats", "feascheck")],
]


@pytest.mark.parametrize("kind", ["directory", "in_missing_directory"])
@pytest.mark.parametrize("command,flag", OUTPUT_FLAGS)
def test_unwritable_output_path_is_usage_error(workdir, tmp_path, capsys, command, flag, kind):
    bad = tmp_path / "output"
    if kind == "directory":
        bad.mkdir()
    else:
        bad = bad / "out.csv"
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, *_required_args(command, workdir, out)]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    assert main(argv) == 2
    assert f"cannot write {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("infer", "--out-state"), ("simulate", "--out-truth")])
def test_failed_run_writes_no_output(workdir, tmp_path, capsys, command, flag):
    """A later output that cannot be written leaves no earlier one behind."""
    out = tmp_path / "out"
    out.mkdir()
    bad = tmp_path / "nodir" / "out.json"
    argv = [command, *_required_args(command, workdir, out)]
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    assert f"cannot write {bad}" in capsys.readouterr().err
    assert not list(out.iterdir())  # no output, manifest or temporary file


@pytest.mark.parametrize("failure", ["unwritable", "computational"])
def test_failed_run_keeps_existing_outputs(workdir, tmp_path, capsys, monkeypatch, failure):
    out = tmp_path / "out"
    out.mkdir()
    argv = ["infer", *_required_args("infer", workdir, out), "--out-scores", str(out / "q.csv")]
    for name in ("g.csv", "g.csv.manifest.json", "q.csv"):
        (out / name).write_text(f"earlier {name}\n")
    if failure == "unwritable":
        argv[argv.index("--out-state") + 1] = str(tmp_path / "nodir" / "s.json")
        expected = 2
    else:
        # fails after the graph is written, before the state is
        def fail(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr("cemnet.cli.check_feasibility", fail)
        expected = 1
    assert main(argv) == expected
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["g.csv", "g.csv.manifest.json", "q.csv"]
    for name in ("g.csv", "g.csv.manifest.json", "q.csv"):
        assert (out / name).read_text() == f"earlier {name}\n"


def test_successful_run_replaces_outputs_and_leaves_no_temporary_file(workdir, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "g.csv").write_text("earlier\n")
    argv = ["infer", *_required_args("infer", workdir, out), "--dump-lp", str(out / "p.lp")]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "g.csv", "g.csv.manifest.json", "p.lp", "s.json", "s.json.manifest.json"]
    assert (out / "g.csv").read_text().startswith("src,dst")
    # the mode a plain open would give
    umask = os.umask(0)
    os.umask(umask)
    for path in out.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("kind,row", [("graph", 2), ("labels", 3)])
def test_overlong_csv_field_is_usage_error(workdir, tmp_path, capsys, kind, row):
    bad = tmp_path / f"long_{kind}.csv"
    trace, truth = str(workdir / "trace.csv"), str(workdir / "truth.csv")
    if kind == "graph":
        bad.write_text("src,dst,q\n" + "x" * 200_000 + ",u0002,1.0\n")
        argv = ["stats", "--graph", str(bad), "--trace", trace]
    else:
        bad.write_text("uid,community\nu0001,0\n" + "x" * 200_000 + ",1\n")
        argv = ["evaluate", "--inferred", truth, "--truth", truth, "--trace", trace,
                "--truth-labels", str(bad)]
    rc = main(argv + ["--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"row {row}: field larger than field limit" in err


def _valid_rows(draw) -> list[list[str]]:
    """A valid trace of one to eight users: originals and reposts of earlier rows."""
    n_rows = draw(st.integers(1, 12))
    rows = [["p0", "0", "u0", "-1"]]
    for k in range(1, n_rows):
        parent = draw(st.integers(-1, k - 1))
        t = int(rows[parent][1]) + draw(st.integers(0, 3)) if parent >= 0 else k
        rows.append([f"p{k}", str(t), f"u{draw(st.integers(0, 7))}",
                     f"p{parent}" if parent >= 0 else "-1"])
    return rows


JUNK = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
               max_size=6)


@st.composite
def malformed_traces(draw) -> bytes:
    """A valid trace with one to three corruptions; blank lines alone keep it valid."""
    rows = _valid_rows(draw)
    kinds = draw(st.lists(st.sampled_from([
        "arity", "mixed", "negative", "junk_time", "duplicate", "dangling",
        "cycle", "blank", "empty_field", "bytes"]), min_size=1, max_size=3))
    blanks: list[int] = []
    arity: list[int] = []
    bad_bytes = None
    for kind in kinds:
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        if kind == "arity":
            arity.append(k)
        elif kind == "mixed":
            row[1] = draw(st.sampled_from(["2024-01-01T00:00:00Z", "1.5", "1e3"]))
        elif kind == "negative":
            row[1] = str(-draw(st.integers(1, 10**20)))
        elif kind == "junk_time":
            row[1] = draw(JUNK)
        elif kind == "duplicate":
            rows.append([row[0], row[1], "u9", "-1"])
        elif kind == "dangling":
            row[3] = draw(st.sampled_from(["px", "p99", "", "-2"]))
        elif kind == "cycle":
            rows += [["ca", "5", "u8", "cb"], ["cb", "5", "u9", "ca"]]
        elif kind == "blank":
            blanks.append(k)
        elif kind == "empty_field":
            row[draw(st.sampled_from([0, 2]))] = " "
        else:
            bad_bytes = (k, draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe2\x82", b"\x80"])))
    for k in arity:
        if draw(st.booleans()):
            rows[k].append(draw(JUNK))
        elif len(rows[k]) > 1:
            del rows[k][draw(st.integers(0, len(rows[k]) - 1))]
    lines = [",".join(r).encode() for r in rows]
    for k in blanks:
        lines.insert(k, b"")
    if bad_bytes is not None:
        k, junk = bad_bytes
        lines[k] = lines[k][:1] + junk + lines[k][1:]
    return b"\n".join([b"pid,t,uid,rid"] + lines) + b"\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=malformed_traces())
def test_fuzzed_traces_exit_0_or_2(tmp_path, capsys, data):
    """Malformed trace text never fails inference (1) or escapes as an exception."""
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    capsys.readouterr()
    rc = main(["infer", "--trace", str(path), "--prior", "er", "--max-iters", "3",
               "--out-graph", str(tmp_path / "g.csv")])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc == 2:
        assert str(path) in err


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=malformed_traces())
def test_fuzzed_traces_exit_0_or_2_for_baselines(tmp_path, capsys, data):
    """Every baseline method reads malformed trace text as exit 0 or 2."""
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    for method in ("star", "chain", "saito", "newman"):
        capsys.readouterr()
        rc = main(["baseline", "--method", method, "--trace", str(path),
                   "--out-graph", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert rc in (0, 2), (method, err)
        if rc == 2:
            assert str(path) in err, (method, err)


# four users u0..u3; u0 -> u1 -> u2 and u0 -> u3 -> u2 explain every repost
FUZZ_TRACE = "pid,t,uid,rid\np0,0,u0,-1\np1,1,u1,p0\np2,2,u2,p1\np3,3,u3,p0\n"
FUZZ_GRAPH = "src,dst,q\nu0,u1,0.9\nu1,u2,0.8\nu0,u3,0.7\nu3,u2,0.6\n"
FUZZ_LABELS = "uid,community\nu0,0\nu1,0\nu2,1\nu3,1\n"
USERS = ["u0", "u1", "u2", "u3"]
TABLE_JUNK = st.one_of(JUNK, st.sampled_from([
    "", " ", "u9", "U1", "nan", "inf", "-inf", "1e400", "-1", "1.5", "0x1", "1_0",
    "99999999999999999999999", "9223372036854775807", "-9223372036854775809", "\x00"]))


@st.composite
def malformed_tables(draw, kind: str) -> bytes:
    """A valid graph or labels CSV over u0..u3 with zero to three corruptions."""
    if kind == "graph":
        header = ["src", "dst", "q"]
        rows = [[USERS[i], USERS[j], str(draw(st.floats(0, 1)))]
                for i, j in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3))
                                          .filter(lambda e: e[0] != e[1]), max_size=6))]
    else:
        header = ["uid", "community"]
        rows = [[u, str(draw(st.integers(0, 3)))] for u in USERS]
    kinds = draw(st.lists(st.sampled_from([
        "header", "arity", "field", "self_loop", "missing", "duplicate", "blank",
        "quote", "bytes"]), max_size=3))
    blanks: list[int] = []
    bad_bytes = None
    for what in kinds:
        k = draw(st.integers(0, max(len(rows) - 1, 0)))
        if what == "header":
            header = draw(st.sampled_from([header[:1], header[::-1], ["a", "b"], [],
                                           [h.upper() for h in header], header + ["x"]]))
        elif not rows:
            continue
        elif what == "arity":
            if draw(st.booleans()):
                rows[k].append(draw(TABLE_JUNK))
            else:
                del rows[k][draw(st.integers(0, len(rows[k]) - 1))]
        elif what == "field" and rows[k]:
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(TABLE_JUNK)
        elif what == "self_loop" and len(rows[k]) > 1:
            rows[k][1] = rows[k][0]
        elif what == "missing":
            del rows[k]
        elif what == "duplicate":
            rows.append([*rows[k][:1], *draw(st.lists(TABLE_JUNK, min_size=1, max_size=2))])
        elif what == "blank":
            blanks.append(k)
        elif what == "quote" and rows[k]:
            rows[k][0] = '"' + rows[k][0]
        elif what == "bytes":
            bad_bytes = (k, draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80"])))
    lines = [",".join(header).encode()] + [",".join(r).encode() for r in rows]
    for k in blanks:
        lines.insert(k + 1, b"")
    if bad_bytes is not None:
        k, junk = bad_bytes
        k = min(k + 1, len(lines) - 1)
        lines[k] = lines[k][:1] + junk + lines[k][1:]
    return b"\n".join(lines) + b"\n"


def _run_fuzzed(tmp_path, capsys, argv, fuzzed):
    capsys.readouterr()
    rc = main(argv + ["--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc == 2:
        assert str(fuzzed) in err, err


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=malformed_tables("graph"), labels=malformed_tables("labels"),
       role=st.sampled_from(["inferred", "truth", "scores"]))
def test_fuzzed_graphs_and_labels_exit_0_or_2(tmp_path, capsys, graph, labels, role):
    """Malformed graph and label files end in exit 2 naming the file, or are read."""
    trace, good, good_labels = (tmp_path / n for n in ("t.csv", "good.csv", "good_labels.csv"))
    trace.write_text(FUZZ_TRACE)
    good.write_text(FUZZ_GRAPH)
    good_labels.write_text(FUZZ_LABELS)
    bad, bad_labels = tmp_path / "fuzz_graph.csv", tmp_path / "fuzz_labels.csv"
    bad.write_bytes(graph)
    bad_labels.write_bytes(labels)
    for command in ("stats", "feascheck"):
        _run_fuzzed(tmp_path, capsys, [command, "--graph", str(bad), "--trace", str(trace)], bad)
    files = {"inferred": good, "truth": good, "scores": good, role: bad}
    evaluate = ["evaluate", "--trace", str(trace)] + [
        arg for name, path in files.items() for arg in (f"--{name}", str(path))]
    _run_fuzzed(tmp_path, capsys, evaluate + ["--truth-labels", str(good_labels)], bad)
    _run_fuzzed(tmp_path, capsys, ["evaluate", "--trace", str(trace), "--inferred", str(good),
                                   "--truth", str(good), "--truth-labels", str(bad_labels)],
                bad_labels)


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
    # the row on line 2, then after a community quoted across lines 3-4
    for text, line in [(f"uid,community\n{row}\n", 2),
                       (f'uid,community\nu0001,0\nu0002,"1\n"\n{row}\n', 5)]:
        bad.write_text(text)
        rc = main([
            "evaluate", "--inferred", str(workdir / "truth.csv"),
            "--truth", str(workdir / "truth.csv"),
            "--trace", str(workdir / "trace.csv"),
            "--truth-labels", str(bad),
            "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and f"row {line}:" in err


def test_duplicated_label_uid_is_usage_error(workdir, tmp_path, capsys):
    lines = (workdir / "labels.csv").read_text().splitlines()
    bad = tmp_path / "dup_labels.csv"
    bad.write_text("\n".join(lines + [lines[1]]) + "\n")  # the first uid again, last
    rc = main([
        "evaluate", "--inferred", str(workdir / "truth.csv"),
        "--truth", str(workdir / "truth.csv"),
        "--trace", str(workdir / "trace.csv"),
        "--truth-labels", str(bad),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    uid = lines[1].split(",")[0]
    assert f"{bad}: row {len(lines) + 1}: uid {uid!r} is listed twice" in err
    assert not (tmp_path / "x.json").exists()


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


def test_stats_follows_head(workdir, tmp_path, capsys):
    # the first trace row has one user, and the truth graph's edges reach others
    rc = main(["stats", "--graph", str(workdir / "truth.csv"),
               "--trace", str(workdir / "trace.csv"), "--head", "1",
               "--out", str(tmp_path / "stats.json")])
    assert rc == 2
    assert str(workdir / "truth.csv") in capsys.readouterr().err
    assert not (tmp_path / "stats.json").exists()


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


def test_simulate_too_many_users_is_usage_error(tmp_path, capsys, monkeypatch):
    from cemnet import simulate as sim

    def dense_draw(*args):
        raise AssertionError("the bound must be checked before the graph is drawn")

    monkeypatch.setattr(sim, "generate_sbm_graph", dense_draw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_users": sim.MAX_USERS + 1}) + "\n")
    rc = main([
        "simulate", "--config", str(config),
        "--out-trace", str(tmp_path / "t.csv"),
        "--out-truth", str(tmp_path / "g.csv"),
        "--out-labels", str(tmp_path / "l.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n_users must be at most" in err and str(config) in err
    assert not (tmp_path / "t.csv").exists()


# every value small, so that a config the loader accepts simulates in moments
CONFIG_VALUES = {
    "n_users": st.sampled_from([1, 2, 3, 12, 30]),
    "n_blocks": st.sampled_from([1, 2, 3]),
    "block_sizes": st.sampled_from([None, [1, 1], [2, 10], [6, 6], [30]]),
    "p_intra": st.sampled_from([0.0, 0.3, 1.0]),
    "q_inter": st.sampled_from([0.0, 0.05]),
    "feed_capacity": st.sampled_from([1, 4]),
    "n_events": st.sampled_from([1, 300]),
    "post_rate": st.sampled_from([[0.001, 0.006], [0.0, 0.01]]),
    "repost_rate": st.sampled_from([[0.03, 0.15], [0.1, 0.1]]),
    "seed": st.sampled_from([0, 7]),
}
CONFIG_JUNK = st.sampled_from([
    -1, 0, 2.5, 1e400, -1e400, float("nan"), "3", "", None, True, False, [], [1],
    [0.1, 0.2, 0.3], [-1, 2], ["a", "b"], [1e400, 1e400], {}, {"a": 1}, 2**70])


@st.composite
def malformed_configs(draw) -> bytes:
    """A SimConfig JSON object with zero to three bad values, keys, types or bytes."""
    config = {key: draw(values) for key, values in CONFIG_VALUES.items()
              if draw(st.booleans())}
    kinds = draw(st.lists(st.sampled_from(["value", "key", "top", "cut", "bytes"]),
                          max_size=3))
    for kind in kinds:
        if kind == "value":
            config[draw(st.sampled_from(sorted(CONFIG_VALUES)))] = draw(CONFIG_JUNK)
        elif kind == "key":
            config[draw(st.sampled_from(["n_user", "", "Seed", "extra"]))] = 1
    if "top" in kinds:
        config = draw(st.sampled_from([[], [config], 3, "config", None]))
    text = json.dumps(config).encode()
    if "cut" in kinds:
        text = text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    if "bytes" in kinds:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80"])) + text[k:]
    return text


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=malformed_configs())
def test_fuzzed_simulate_configs_exit_0_or_2(tmp_path, capsys, config):
    """A malformed ``simulate --config`` file ends in exit 2 naming it, or simulates."""
    path = tmp_path / "fuzz_config.json"
    path.write_bytes(config)
    capsys.readouterr()
    rc = main(["simulate", "--config", str(path), "--n-events", "300",
               "--out-trace", str(tmp_path / "t.csv"), "--out-truth", str(tmp_path / "g.csv"),
               "--out-labels", str(tmp_path / "l.csv")])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc == 2:
        assert str(path) in err, err
