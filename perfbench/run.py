"""cemnet benchmark: time to verified graphs, end to end and layer by layer.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Run from the repository root.  Set-up simulates the workload's inputs in a
child process and writes them as CSV; the timed part then runs rounds (one
pass over every input, see passes.py) until ``--seconds`` of timed work
have passed, with at least one full round; the last round may stop after
any input.  Every timed step is also scaled to the nominal machine speed,
read by the reference unit in reference.py next to that step.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one traced
round and reports the per-layer metrics instead.  The last line of standard output is the result object;
the line before it holds raw times, quartiles, sample counts, exact
counts, graph digests and the environment.
"""

from __future__ import annotations

import os

# one thread for BLAS/OpenMP, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from inputs import input_files, sim_configs  # noqa: E402
from reference import nominal, tick  # noqa: E402
from tracer import NullTracer, Tracer, layer_stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"  # run files and per-seed records; git-ignored
WORKLOADS = ("paper", "sweep")
MIN_ROUNDS = 1  # so every timed step runs at least once

# spans each workload must record at least once in its traced run; a zero
# means a wrapper no longer sits where the program looks the function up
EXPECTED_SPANS = {
    "paper": (
        "trace.parse", "trace.episodes", "trace.pair_counts", "constraints.build",
        "constraints.feascheck", "lp.reduce", "lp.solve", "em.preprocess",
        "em.run", "em.estep", "em.mstep", "em.threshold", "em.score_matrix",
        "community.louvain", "metrics.classify", "baselines.star_chain",
        "baselines.saito", "baselines.newman",
    ),
    "sweep": (
        "trace.parse", "trace.episodes", "trace.pair_counts", "constraints.build",
        "constraints.feascheck", "lp.reduce", "lp.solve", "em.preprocess",
        "em.run", "em.estep", "em.mstep", "em.threshold", "em.score_matrix",
        "metrics.classify", "metrics.graph_stats",
    ),
}
# per-layer self times, by metric name and span name
SELF_TIMES = {
    "trace.parse_s": "trace.parse",
    "trace.episodes_s": "trace.episodes",
    "trace.pair_counts_s": "trace.pair_counts",
    "constraints.build_s": "constraints.build",
    "constraints.feascheck_s": "constraints.feascheck",
    "lp.reduce_s": "lp.reduce",
    "lp.solve_s": "lp.solve",
    "em.estep_s": "em.estep",
    "em.mstep_s": "em.mstep",
    "em.threshold_s": "em.threshold",
    "em.score_matrix_s": "em.score_matrix",
    "em.self_s": "em.run",
    "community.louvain_s": "community.louvain",
    "metrics.classify_s": "metrics.classify",
    "metrics.graph_stats_s": "metrics.graph_stats",
    "baselines.star_chain_s": "baselines.star_chain",
    "baselines.saito_s": "baselines.saito",
    "baselines.newman_s": "baselines.newman",
}
CALL_COUNTS = {
    "constraints.feascheck_calls": "constraints.feascheck",
    "lp.calls": "lp.solve",
    "em.threshold_calls": "em.threshold",
    "community.louvain_calls": "community.louvain",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def import_cemnet():
    """Import cemnet from this checkout's src/, never from site-packages."""
    if not (SRC / "cemnet" / "__init__.py").is_file():
        raise BenchError(f"no cemnet package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cemnet

    if Path(cemnet.__file__).resolve().parent != SRC / "cemnet":
        raise BenchError(f"imported cemnet from {cemnet.__file__}, not {SRC}")
    return cemnet


def make_inputs(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Simulate and write the inputs in a child process; return its timings."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out_dir), "--src", str(SRC)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=150,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def check_passes(passes_run) -> tuple[int, list[str]]:
    """Failed fits and problems over all passes, against each input's first pass."""
    failed, problems = 0, []
    first = {}
    for r, k, inp in passes_run:
        ref = first.setdefault(k, inp).record()
        if inp.counts != ref["counts"]:
            problems.append(f"round {r} input {k}: exact counts differ (unsteady)")
        for fit in inp.fits:
            bad = list(fit.problems)
            if fit.digest and [fit.digest, fit.iterations] != ref["fits"].get(fit.key):
                bad.append("graph digest or iteration count differs from round 0")
            if bad:
                failed += 1
                problems.append(f"round {r} input {k} fit {fit.key}: {'; '.join(bad)}")
        if inp.baselines != ref["baselines"]:
            problems.append(f"round {r} input {k}: baseline graphs differ (unsteady)")
    return failed, problems


def code_digest(numpy_version: str) -> str:
    """Hash of the cemnet sources, the benchmark's own code and the versions."""
    h = hashlib.sha256(f"{platform.python_version()} {numpy_version}".encode())
    for path in sorted([*SRC.glob("cemnet/**/*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_record(workload: str, seed: int, code: str, record: dict) -> list[str]:
    """Compare this run's exact outputs with an earlier run of the same code.

    The first run on a seed stores its record; later runs must match it
    key by key (traced-only keys are added when a traced run first sees them).
    The record is keyed by ``code_digest``, so a change to cemnet or to the
    benchmark starts a fresh record instead of reading as unsteady.
    """
    path = WORK / "records" / f"{workload}-{seed}-{code}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    old = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{key} differs from an earlier run on seed {seed} (unsteady)"
                for key in sorted(old.keys() & record.keys()) if old[key] != record[key]]
    if not problems:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**old, **record}, sort_keys=True))
        os.replace(tmp, path)
    return problems


def per_layer(workload, stats, pass_stats, traced_inputs, watch, wall_s,
              sim_timings) -> dict:
    """Per-layer metrics of one traced run (spans from set-up and the traced round).

    Span times are seconds as measured; ``bench.tracing_overhead_s`` compares
    the traced round with the untraced ``wall_s``, both at the nominal speed.
    """
    missing = [name for name in EXPECTED_SPANS[workload] if stats.calls[name] == 0]
    if missing:
        raise BenchError(f"traced run recorded no calls of {missing} on {workload}")
    counts = {}
    for inp in traced_inputs:
        for key, value in inp.counts.items():
            counts[key] = (max(counts.get(key, 0), value) if key == "lp.max_component_vars"
                           else counts.get(key, 0) + value)
    fits = [f for inp in traced_inputs for f in inp.fits]
    saito = [inp.baselines["saito_converged"] for inp in traced_inputs
             if "saito_converged" in inp.baselines]
    out = {name: stats.self_s.get(span, 0.0) for name, span in SELF_TIMES.items()}
    out.update({name: stats.calls[span] for name, span in CALL_COUNTS.items()})
    out.update({
        "trace.rows": counts["trace.rows"],
        "trace.episodes": counts["trace.episodes"],
        "trace.pairs": counts["trace.pairs"],
        "constraints.rows": counts["constraints.rows"],
        "lp.kept_rows_ratio": counts["lp.kept_rows"] / max(counts["constraints.rows"], 1),
        "lp.components": counts["lp.components"],
        "lp.max_component_vars": counts["lp.max_component_vars"],
        "lp.pivots": stats.pivots,
        "lp.nonoptimal": stats.nonoptimal,
        "em.preprocess_s": stats.total_s.get("em.preprocess", 0.0),
        "em.run_s": stats.total_s.get("em.run", 0.0),
        "em.iterations": sum(f.iterations for f in fits),
        "em.converged_frac": mean([float(f.converged) for f in fits]),
        "community.n_communities": sum(f.n_communities for f in fits),
        "baselines.saito_converged_frac": mean([float(c) for c in saito]),
        "simulate.s": sum(t["simulate_s"] for t in sim_timings),
        "bench.uncovered_s": watch.seconds - pass_stats.top_level_s,
        "bench.tracing_overhead_s": watch.nominal_seconds - wall_s,
    })
    return out


def run(args) -> tuple[dict, dict]:
    import_cemnet()
    import numpy as np

    import passes  # imports cemnet, so only once src/ is on the path

    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        sim_timings = make_inputs(args.workload, args.seed, run_dir)
        n_inputs = len(sim_configs(args.workload, args.seed))
        files = [input_files(run_dir, k) for k in range(n_inputs)]
        setup_raw = [t["simulate_s"] + t["write_s"] for t in sim_timings]
        setup_nominal = [t["nominal_s"] for t in sim_timings]

        tracer = Tracer() if args.trace else NullTracer()
        loaded = []
        if args.workload == "sweep":
            # parse and preprocess once; traced on a traced run, since on
            # this workload those layers can only move setup_s
            with tracer.installed():
                for k, f in enumerate(files):
                    before = tick()
                    t0 = time.perf_counter()
                    tr, prep = passes.parse_and_preprocess(f)
                    sec = time.perf_counter() - t0
                    setup_raw[k] += sec
                    setup_nominal[k] += nominal(sec, before + tick())
                    loaded.append(passes.load_truth(f, tr, prep))

        def one_pass(k, r, watch, tr_obj):
            if args.workload == "paper":
                return passes.paper_input(files[k], k, watch, tr_obj)
            return passes.sweep_input(loaded[k], k, args.seed, r, watch, tr_obj)

        # rounds of one pass per input, until --seconds of timed work and
        # MIN_ROUNDS full rounds; each step's repeats are kept for a median
        passes_run = []
        repeats: dict[str, list[float]] = {}
        raw_repeats: dict[str, list[float]] = {}
        timed = 0.0
        r = 0
        while r < MIN_ROUNDS or timed < args.seconds:
            for k in range(n_inputs):
                if r >= MIN_ROUNDS and timed >= args.seconds:
                    break
                watch = passes.Stopwatch()
                passes_run.append((r, k, one_pass(k, r, watch, NullTracer())))
                for name, sec in watch.nominal.items():
                    repeats.setdefault(name, []).append(sec)
                    raw_repeats.setdefault(name, []).append(watch.steps[name])
                timed += watch.seconds
            r += 1
        timed_passes = len(passes_run)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # one round at the median of each step's repeats, at the nominal
        # machine speed and, for the detail line, as measured
        wall_s = sum(statistics.median(v) for v in repeats.values())
        round_raw = sum(statistics.median(v) for v in raw_repeats.values())
        setup_s = statistics.median(setup_nominal)

        metrics_out = {}
        traced_counts = {}
        if args.trace:
            pass_start = len(tracer.spans)
            watch = passes.Stopwatch()
            traced_inputs = []
            with tracer.installed():
                for k in range(n_inputs):
                    traced_inputs.append(one_pass(k, r, watch, tracer))
                    passes_run.append((r, k, traced_inputs[-1]))
            stats = layer_stats(tracer.spans)
            pass_stats = layer_stats(tracer.spans, pass_start)
            metrics_out = per_layer(args.workload, stats, pass_stats, traced_inputs,
                                    watch, wall_s, sim_timings)
            traced_counts = {"lp.pivots": metrics_out["lp.pivots"],
                             "community.louvain_calls": metrics_out["community.louvain_calls"]}
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.__dict__) + "\n")

        failed, problems = check_passes(passes_run)
        first = [inp for rr, _, inp in passes_run if rr == 0]
        record = {
            "counts": [inp.counts for inp in first],
            "fits": [inp.record()["fits"] for inp in first],
            "baselines": [inp.baselines for inp in first],
            **traced_counts,
        }
        code = code_digest(np.__version__)
        problems += check_record(args.workload, args.seed, code, record)

        fits = [f for inp in first for f in inp.fits]
        lam1 = [f for f in fits if f.lam == 1.0]
        quality = {
            "feasibility_min": min(f.feasibility for f in fits),
            "precision_lam1": mean([f.precision for f in lam1]),
            "recall": mean([f.recall for f in fits]),
            "auc": mean([f.auc for f in fits]),
        }
        if not args.trace:
            metrics_out = {
                "wall_s": wall_s,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
                **quality,
            }
        f1 = [f.community_f1 for f in fits if f.community_f1 is not None]
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "env": {
                "nproc": os.cpu_count(),
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "n_threads": 1,
            },
            "code_digest": code,
            "timed_passes": timed_passes,
            "wall_s": wall_s,
            "wall_raw_s": round_raw,
            "timed_s": timed,
            "step_repeats": min(len(v) for v in repeats.values()),
            "step_s": {name: quartiles(v) for name, v in sorted(repeats.items())},
            "setup_s": setup_s,
            "setup_raw_s": quartiles(setup_raw),
            "peak_rss_mb": peak_rss_mb,
            "quality": quality,
            "community_f1": mean(f1) if f1 else None,
            "record": record,
            "problems": problems,
        }
        result = {
            "correct": not problems,
            "attempted": sum(len(inp.fits) for _, _, inp in passes_run),
            "failed": failed,
            "metrics": metrics_out,
        }
        return detail, result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        detail, result = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in units["end_to_end"] + units["per_layer"]}
    wanted = [m["name"] for m in units["per_layer" if args.trace else "end_to_end"]]
    if sorted(wanted) != sorted(result["metrics"]):
        print(f"perfbench: metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(wanted)}", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": value, "unit": unit_of[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
