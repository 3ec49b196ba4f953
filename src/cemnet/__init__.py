"""Feasibility-constrained EM inference of follower graphs from interaction traces."""

__version__ = "0.1.0"

from .constraints import (  # noqa: F401
    ConstraintSystem,
    FeasibilityReport,
    build_constraints,
    check_feasibility,
)
from .em import (  # noqa: F401
    EmState,
    ParamSet,
    Preprocessed,
    preprocess,
    run_cem,
    threshold_graph,
)
from .graph import InferredGraph  # noqa: F401
from .trace import (  # noqa: F401
    Episodes,
    PairTable,
    Trace,
    TraceRecord,
    build_episodes,
    pair_counts,
    parse_trace,
)
