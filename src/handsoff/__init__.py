"""Sparse, mixed, and minimum-energy control of LTI plants by convex transcription.

The package computes controls that steer a linear time-invariant plant to the
origin over a fixed horizon under a unit amplitude bound, minimizing either
the L1 control cost (which yields maximally sparse, bang-off-bang "hands-off"
controls), a mixed L1 plus quadratic cost (sparse and continuous), or the
control energy.  The continuous problem is transcribed exactly under a
zero-order hold to a finite convex program, which is solved on its dual,
whose only unknown is the terminal costate: exactly by an exchange method
for the L1 cost, and by semismooth Newton ascent when a quadratic term is
present.  Analysis utilities quantify sparsity and switching structure and
verify solutions against the optimality conditions.
"""

from .scalar_ops import control_law, dead_zone, sat, shrink
from .plant import (
    MODES,
    ControlProblem,
    ControlTrajectory,
    LtiPlant,
    controllability_gramian,
    discretize,
    expm,
    min_energy_closed_form,
    reachability_matrix,
    simulate,
)
from .solver import (
    DiscreteProgram,
    SolveReport,
    minimum_time,
    solve,
    solve_problem,
    transcribe,
)
from .analysis import (
    HandsOffMetrics,
    TradeoffPoint,
    bangoffbang_score,
    compute_metrics,
    costate_consistency,
    derivative_supnorm,
    l0_measure,
    l0_per_channel,
    sweep_tradeoff,
    switching_times,
)

__version__ = "0.1.0"

__all__ = [
    "control_law",
    "dead_zone",
    "sat",
    "shrink",
    "MODES",
    "ControlProblem",
    "ControlTrajectory",
    "LtiPlant",
    "controllability_gramian",
    "discretize",
    "expm",
    "min_energy_closed_form",
    "reachability_matrix",
    "simulate",
    "DiscreteProgram",
    "SolveReport",
    "minimum_time",
    "solve",
    "solve_problem",
    "transcribe",
    "HandsOffMetrics",
    "TradeoffPoint",
    "bangoffbang_score",
    "compute_metrics",
    "costate_consistency",
    "derivative_supnorm",
    "l0_measure",
    "l0_per_channel",
    "sweep_tradeoff",
    "switching_times",
    "__version__",
]
