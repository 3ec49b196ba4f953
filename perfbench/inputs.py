"""Workload inputs: simulated traces with their ground truth, written as CSV.

Run as a script, this is the set-up child process: it simulates every input
of a workload for one seed, writes the trace, truth graph and truth labels
files, and prints the per-input timings as JSON: seconds as measured and,
read by the reference unit timed before and after each input, at the
nominal machine speed (see reference.py).  Simulating in a child
keeps the simulator's memory out of the benchmark process's peak RSS.

    python3 perfbench/inputs.py --workload paper --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class InputFiles:
    trace_csv: Path
    truth_csv: Path
    labels_csv: Path


def sim_configs(workload: str, seed: int) -> list[dict]:
    """SimConfig keyword sets for the inputs of one workload and seed."""
    if workload == "paper":
        # the acceptance matrix on ten default traces (N=100, 7 blocks).  The
        # work per trace varies with its seed; over five traces a seed's
        # total still varied by ~9% (IQR/median), over ten it varies less.
        return [{"seed": seed + k} for k in range(10)]
    if workload == "sweep":
        # N=500 block model with the N=1000 configuration's mean degree.
        # Blocks are equal and every user posts and reposts at the midpoint
        # of the default rate ranges: with random partitions and per-user
        # rates the work per seed varied by a third.
        return [
            {"seed": seed + k, "n_users": 500,
             "block_sizes": [72, 72, 71, 71, 71, 71, 72],
             "p_intra": 0.012, "q_inter": 0.0014, "n_events": 120_000,
             "post_rate": (0.0035, 0.0035), "repost_rate": (0.09, 0.09)}
            for k in range(3)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def input_files(out_dir: Path, k: int) -> InputFiles:
    return InputFiles(out_dir / f"trace{k}.csv", out_dir / f"truth{k}.csv",
                      out_dir / f"labels{k}.csv")


def write_inputs(workload: str, seed: int, out_dir: Path) -> list[dict]:
    from cemnet.graph import write_graph_csv, write_labels_csv
    from cemnet.simulate import SimConfig, simulate
    from cemnet.trace import trace_to_csv

    from reference import nominal, tick

    timings = []
    for k, kwargs in enumerate(sim_configs(workload, seed)):
        files = input_files(out_dir, k)
        before = tick()
        t0 = time.perf_counter()
        out = simulate(SimConfig(**kwargs))
        t1 = time.perf_counter()
        trace_to_csv(out.trace, files.trace_csv)
        write_graph_csv(out.truth_graph, out.trace.users, files.truth_csv)
        write_labels_csv(out.truth_labels, out.trace.users, files.labels_csv)
        t2 = time.perf_counter()
        timings.append({"simulate_s": t1 - t0, "write_s": t2 - t1,
                        "nominal_s": nominal(t2 - t0, before + tick())})
    return timings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True,
                        help="directory that holds the cemnet package")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    print(json.dumps(write_inputs(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
