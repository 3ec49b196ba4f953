"""The benchmark's hooks and reads resolve in cemnet, and the fits call them.

``perfbench/tracer.py`` wraps the module attributes listed in its
``PATCHES`` for a traced run.  That run fails on a name that is gone, and
exits 2 when a span records no call.  These tests read ``PATCHES`` from the
file, without changing it, so that a refactor which drops a hooked name or
stops calling it through its module fails here as well.  They also import
``perfbench/passes.py`` as the benchmark does and check what it reads of a
graph and a trace: ``digest`` over ``InferredGraph.edges`` and the row count
over ``Trace.records``.
"""

import ast
import hashlib
import importlib
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cemnet import em
from cemnet.graph import InferredGraph, write_graph_csv, write_labels_csv
from cemnet.simulate import SimConfig, simulate
from cemnet.trace import trace_to_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def patches():
    """The literal ``PATCHES`` tuple of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["PATCHES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCHES in {TRACER}")


def test_every_traced_name_resolves(patches):
    missing = [f"cemnet.{mod}.{attr}" for mod, attr, _ in patches
               if not callable(getattr(importlib.import_module(f"cemnet.{mod}"), attr, None))]
    assert not missing


def test_fits_call_every_traced_em_name(patches, monkeypatch):
    # the benchmark calls score_matrix itself; every other em hook runs in a fit
    names = [attr for mod, attr, _ in patches if mod == "em" and attr != "score_matrix"]
    calls = Counter()

    def counted(attr, func):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return func(*args, **kwargs)
        return wrapper

    for attr in names:
        monkeypatch.setattr(em, attr, counted(attr, getattr(em, attr)))
    trace = simulate(SimConfig(seed=2, n_events=5_000)).trace
    for prior in (em.PRIOR_ER, em.PRIOR_SBM):
        em.run_cem(trace, prior, 1.0, seed=7, max_iters=3)
    assert [attr for attr in names if not calls[attr]] == []


@pytest.fixture(scope="module")
def passes():
    """``perfbench/passes.py``, imported with ``perfbench/`` on the path for
    its own ``reference`` import, as the benchmark's run imports it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("passes")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_benchmark_digest_hashes_the_edge_arrays(passes, rng):
    n = 40
    keys = rng.choice(n * n, size=300, replace=False)
    keys = keys[keys // n != keys % n]
    graphs = [InferredGraph(4, []), InferredGraph(6, [(5, 0), (0, 3), (2, 1), (0, 3)]),
              InferredGraph(n, rng.permutation(np.column_stack(np.divmod(keys, n))))]
    for g in graphs:
        pairs = np.column_stack([g.src, g.dst]).astype(np.int64)
        assert passes.digest(g) == hashlib.sha256(pairs.tobytes()).hexdigest()[:16]


def test_benchmark_row_count_is_the_trace_length(passes, tmp_path):
    out = simulate(SimConfig(n_users=30, n_blocks=2, n_events=5000, seed=4))
    files = SimpleNamespace(trace_csv=tmp_path / "trace.csv", truth_csv=tmp_path / "truth.csv",
                            labels_csv=tmp_path / "labels.csv")
    trace_to_csv(out.trace, files.trace_csv)
    write_graph_csv(out.truth_graph, out.trace.users, files.truth_csv)
    write_labels_csv(out.truth_labels, out.trace.users, files.labels_csv)
    tr, prep = passes.parse_and_preprocess(files)
    assert len(tr.pid) == len(out.trace.pid)
    assert passes.load_truth(files, tr, prep).counts["trace.rows"] == len(tr.pid)
