"""The benchmark tracer's hooks resolve in cemnet, and the fits call them.

``perfbench/tracer.py`` wraps the module attributes listed in its
``PATCHES`` for a traced run.  That run fails on a name that is gone, and
exits 2 when a span records no call.  These tests read ``PATCHES`` from the
file, without changing it, so that a refactor which drops a hooked name or
stops calling it through its module fails here as well.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from cemnet import em
from cemnet.simulate import SimConfig, simulate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
