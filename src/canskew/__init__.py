"""Clock-skew fingerprinting IDS simulation and cloaking-attack analysis for
periodic CAN traffic."""

from .attacks import AttackSpec, cloaked_trace, compute_delta_t0
from .clock import (
    ClockSpec,
    InsufficientDataError,
    MessageSchedule,
    NoiseModel,
    Trace,
    ppm,
    relative_skew,
    synthesize_trace,
)
from .correlation import (
    CorrelationScenario,
    PairCorrelation,
    correlation_verdict,
    pearson,
    predicted_rho,
    sibling_cloak_trace,
    simulate_sibling_pair,
)
from .curves import SuccessCurve
from .formal import (
    CusumRecursionConfig,
    Snapshot,
    cusum_success_recursion,
    sota_success_prob,
    success_curve,
    take_snapshot,
)
from .harness import ExperimentConfig, SyntheticSource, ade, consistency_study, epsilon_msi, monte_carlo_ps
from .ids import DetectionReport, IdsConfig, IdsState, Variant, run_ids
from .traceio import LogFormat, ParseError, fill_missing, parse_log, write_trace

__version__ = "0.1.0"
