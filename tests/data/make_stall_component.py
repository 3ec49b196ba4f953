"""Write ``stall_component.npz``: one component of the first sigma LP at N=1000.

The trace is ``SimConfig(n_users=1000, n_blocks=20, seed=11)`` and the fit
``run_cem(prep, "er", 1.0, seed=7)``.  The file holds the tenth component
that reaches the simplex in the first ``solve_reduced`` call, after
pinning, open-row masking and column dedup: a 68 x 849 incidence whose
optimum is -902.90085581622.  A primal simplex with Bland's rule makes
thousands of degenerate pivots on it without certifying that optimum.

Run from the repository root (about 15 s):

    PYTHONPATH=src python tests/data/make_stall_component.py
"""

from pathlib import Path

import numpy as np

from cemnet import em, lp
from cemnet.simulate import SimConfig, simulate

COMPONENT = 9


class _Captured(Exception):
    pass


def main() -> None:
    trace = simulate(SimConfig(n_users=1000, n_blocks=20, seed=11)).trace
    prep = em.preprocess(trace)
    calls = []

    def capture(R, c):
        calls.append((R, c))
        if len(calls) > COMPONENT:
            raise _Captured
        return np.ones(len(c)), 0, None

    lp._dual_simplex = capture
    try:
        em.run_cem(prep, "er", 1.0, seed=7)
    except _Captured:
        pass
    R, c = calls[COMPONENT]
    np.savez_compressed(Path(__file__).with_name("stall_component.npz"),
                        rows=np.packbits(R, axis=1), n_vars=len(c), c=c)


if __name__ == "__main__":
    main()
