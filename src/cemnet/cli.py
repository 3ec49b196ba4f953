"""Command-line front-end: simulate | infer | baseline | evaluate | stats | feascheck.

Every run writes a manifest JSON next to each output artifact recording the
command, arguments, seed, input digests, tool version, and wall-clock time.
Primary outputs (graphs, reports, traces) are byte-stable for a fixed seed.
A run writes all of its outputs or none: each file goes to a temporary file
in its target directory, and the temporaries are renamed into place only
once the whole run has succeeded.
Exit codes: 0 success, 1 computational failure, 2 usage/schema errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import baselines, community, em, metrics
from .constraints import check_feasibility
from .graph import (
    GraphFormatError,
    InferredGraph,
    read_graph_csv,
    read_labels_csv,
    write_graph_csv,
    write_labels_csv,
)
from .trace import TraceFormatError, build_episodes, parse_trace, trace_to_csv

log = logging.getLogger("cemnet.cli")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class UsageError(Exception):
    """Bad invocation or malformed input files (exit code 2)."""


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Outputs:
    """The files of one run, each written to a temporary file beside its
    target: ``commit`` renames them all into place, ``discard`` removes
    them, so a failed run leaves every output path as it was."""

    def __init__(self) -> None:
        self.staged: list[tuple[str, str]] = []  # (temporary, target)

    def path(self, target: str) -> str:
        """A new empty temporary file that ``commit`` renames to ``target``."""
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.getpid()}-{len(self.staged)}.tmp")
        try:
            # here, not at the rename, which comes after other files are in place
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            open(tmp, "x").close()
        except OSError as exc:
            raise _unwritable(target, exc) from exc
        self.staged.append((tmp, target))
        return tmp

    def write(self, target: str, write, *args) -> None:
        """``write(*args, path)`` to a temporary file for ``target``; a
        target that cannot be written exits 2 naming it."""
        tmp = self.path(target)
        try:
            write(*args, tmp)
        except OSError as exc:
            raise _unwritable(target, exc) from exc

    def commit(self) -> None:
        for tmp, target in self.staged:
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise _unwritable(target, exc) from exc
        self.staged.clear()

    def discard(self) -> None:
        for tmp, _ in self.staged:
            try:
                os.remove(tmp)
            except FileNotFoundError:
                pass
        self.staged.clear()


def _write_manifests(args: argparse.Namespace, argv: list[str],
                     inputs: list[str], outputs: list[str],
                     started: float, files: _Outputs) -> None:
    manifest = {
        "command": args.command,
        "argv": argv,
        "seed": getattr(args, "seed", None),
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": sorted(outputs),
        "version": __version__,
        "runtime_seconds": time.perf_counter() - started,
    }
    for out in outputs:
        files.write(out + ".manifest.json", _write_json, manifest)


def _unwritable(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_trace(args: argparse.Namespace):
    """The ``--trace`` file, cut to its first ``--head`` rows when that is set."""
    try:
        trace = parse_trace(args.trace, drop_orphans=getattr(args, "drop_orphans", False))
    except TraceFormatError as exc:
        raise UsageError(f"bad trace {args.trace}: {exc}") from exc
    return trace.head(args.head) if args.head else trace


def _require_two_users(args: argparse.Namespace, trace) -> None:
    if trace.n_users < 2:
        raise UsageError(f"trace {args.trace}: {trace.n_users} user(s), "
                         "an edge prior needs at least two")


def _cmd_simulate(args: argparse.Namespace, files: _Outputs) -> list[str]:
    from .simulate import ConfigError, SimConfig, simulate

    try:
        config = SimConfig.from_json(args.config) if args.config else SimConfig()
    except ConfigError as exc:
        raise UsageError(f"bad config {exc}") from exc
    # the config's own checks apply to the flags that replace its values
    for name in ("seed", "n_events"):
        if getattr(args, name) is not None:
            try:
                config = dataclasses.replace(config, **{name: getattr(args, name)})
            except ValueError as exc:
                raise UsageError(f"--{name.replace('_', '-')}: {exc}") from None
    out = simulate(config)
    files.write(args.out_trace, trace_to_csv, out.trace)
    files.write(args.out_truth, write_graph_csv, out.truth_graph, out.trace.users)
    files.write(args.out_labels, write_labels_csv, out.truth_labels, out.trace.users)
    log.info("simulated %d posts / %d reposts over %d users",
             out.n_posts, out.n_reposts, config.n_users)
    return [args.out_trace, args.out_truth, args.out_labels]


def _cmd_infer(args: argparse.Namespace, files: _Outputs) -> list[str]:
    trace = _load_trace(args)
    _require_two_users(args, trace)
    prep = em.preprocess(trace)
    dump_lp = files.path(args.dump_lp) if args.dump_lp else None
    try:
        state, graph = em.run_cem(
            prep,
            args.prior,
            args.lam,
            beta_fixed=args.beta_fixed,
            max_iters=args.max_iters,
            epsilon=args.epsilon,
            seed=args.seed,
            dump_lp_path=dump_lp,
        )
    except OSError as exc:  # the fit writes no file but --dump-lp
        raise _unwritable(args.dump_lp, exc) from exc
    files.write(args.out_graph, write_graph_csv, graph, trace.users)
    outputs = [args.out_graph]
    if args.out_state:
        payload = state.to_json()
        payload["n_edges"] = graph.n_edges
        payload["feasibility"] = check_feasibility(graph, prep.episodes).fraction
        files.write(args.out_state, _write_json, payload)
        outputs.append(args.out_state)
    if args.out_scores:
        # posterior for every active pair, not only thresholded edges
        scored = InferredGraph(trace.n_users, prep.table.pairs, prep.table.q)
        files.write(args.out_scores, write_graph_csv, scored, trace.users)
        outputs.append(args.out_scores)
    return outputs


def _cmd_baseline(args: argparse.Namespace, files: _Outputs) -> list[str]:
    trace = _load_trace(args)
    episodes = build_episodes(trace)
    if args.method == "star":
        graph = baselines.star_graph(episodes, trace.n_users)
    elif args.method == "chain":
        graph = baselines.chain_graph(episodes, trace.n_users)
    elif args.method == "saito":
        graph = baselines.saito_em(episodes, trace.n_users, seed=args.seed).graph
    else:
        _require_two_users(args, trace)
        graph = baselines.newman_em(episodes, trace.n_users, seed=args.seed).graph
    files.write(args.out_graph, write_graph_csv, graph, trace.users)
    return [args.out_graph]


def _cmd_evaluate(args: argparse.Namespace, files: _Outputs) -> list[str]:
    trace = _load_trace(args)
    users = trace.users
    inferred = read_graph_csv(args.inferred, users)
    truth = read_graph_csv(args.truth, users)

    episodes = build_episodes(trace)
    feas = check_feasibility(inferred, episodes)

    scores = None
    if args.scores:
        scored = read_graph_csv(args.scores, users)
        scores = np.zeros((len(users), len(users)))
        scores[scored.src, scored.dst] = 1.0 if scored.score is None else scored.score
    report = metrics.classification_scores(
        inferred, truth, scores=scores, feasibility=feas.fraction
    )

    if args.truth_labels:
        lab_true = read_labels_csv(args.truth_labels, users)
    else:
        lab_true = community.louvain_graph(truth, seed=args.seed).labels
    lab_pred = community.louvain_graph(inferred, seed=args.seed).labels
    f1_pairs = community.pairwise_f1(lab_pred, lab_true)
    p_hat, q_hat = community.estimate_block_densities(inferred, lab_pred)

    payload = report.to_json()
    payload["feasibility_detail"] = feas.to_json()
    payload["network"] = metrics.graph_stats(inferred).to_json()
    payload["community"] = {
        "pairwise_f1": f1_pairs,
        "p_hat": p_hat,
        "q_hat": q_hat,
        "n_communities": int(lab_pred.max()) + 1,
    }
    files.write(args.out, _write_json, payload)
    return [args.out]


def _cmd_stats(args: argparse.Namespace, files: _Outputs) -> list[str]:
    trace = _load_trace(args)
    graph = read_graph_csv(args.graph, trace.users)
    files.write(args.out, _write_json, metrics.graph_stats(graph).to_json())
    return [args.out]


def _cmd_feascheck(args: argparse.Namespace, files: _Outputs) -> list[str]:
    trace = _load_trace(args)
    graph = read_graph_csv(args.graph, trace.users)
    episodes = build_episodes(trace)
    report = check_feasibility(graph, episodes)
    files.write(args.out, _write_json, report.to_json())
    return [args.out]


def _checked(cast, ok, expected: str):
    """An argparse type: ``cast(text)`` when ``ok`` accepts it, else exit 2 naming the flag."""
    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_non_negative_int = _checked(int, lambda n: n >= 0, "a non-negative integer")
_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
# every comparison with nan is false, so nan fails both float checks
_unit_float = _checked(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")
_non_negative_float = _checked(float, lambda x: math.isfinite(x) and x >= 0.0,
                               "a finite non-negative number")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--head", type=_non_negative_int, default=0, metavar="N",
                   help="use only the first N trace rows (0: all)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cemnet",
        description="Feasibility-constrained follower-graph inference from "
                    "post/repost traces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic trace + ground truth")
    p.add_argument("--config", help="SimConfig JSON; defaults otherwise")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--n-events", type=_non_negative_int, default=None)
    p.add_argument("--out-trace", required=True)
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("infer", help="run constrained EM on a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--prior", choices=[em.PRIOR_ER, em.PRIOR_SBM], required=True)
    p.add_argument("--lambda", dest="lam", type=_unit_float, default=1.0)
    p.add_argument("--epsilon", type=_non_negative_float, default=1e-3)
    p.add_argument("--max-iters", type=_positive_int, default=100)
    p.add_argument("--beta-fixed", type=_unit_float, default=None)
    p.add_argument("--drop-orphans", action="store_true")
    p.add_argument("--dump-lp", default=None, metavar="PATH")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-state", default=None)
    p.add_argument("--out-scores", default=None,
                   help="per-active-pair posterior CSV for later evaluation")
    _add_common(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("baseline", help="run a reference method on a trace")
    p.add_argument("--method", choices=["star", "chain", "saito", "newman"],
                   required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--drop-orphans", action="store_true")
    p.add_argument("--out-graph", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("evaluate", help="score an inferred graph against a truth graph")
    p.add_argument("--inferred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--scores", default=None, help="edge CSV with q column")
    p.add_argument("--trace", required=True)
    p.add_argument("--truth-labels", default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("stats", help="network statistics of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--trace", required=True, help="defines the user universe")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("feascheck", help="feasibility of a trace given a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_feascheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("CEM_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    effective_argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv)
    inputs = [
        p for p in (
            getattr(args, "trace", None), getattr(args, "config", None),
            getattr(args, "inferred", None), getattr(args, "truth", None),
            getattr(args, "scores", None), getattr(args, "graph", None),
            getattr(args, "truth_labels", None),
        )
        if p and os.path.exists(p)
    ]
    started = time.perf_counter()
    files = _Outputs()
    try:
        outputs = args.func(args, files)
        _write_manifests(args, effective_argv, inputs, outputs, started, files)
        files.commit()
    except (UsageError, GraphFormatError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        files.discard()
    return 0


if __name__ == "__main__":
    sys.exit(main())
