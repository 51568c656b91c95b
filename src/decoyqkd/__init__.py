"""Two-intensity decoy-state QKD toolkit.

Security bounds for a signal/decoy intensity pair, an analytic model of
the one-detector interferometric fiber link, a pulse-level Monte Carlo
of the protocol with ground-truth bookkeeping, and fringe calibration
of the receiver's phase working points. See the `decoyqkd` CLI for the
file-based workflows.
"""

from .calibration import (
    FringeFit,
    InsufficientScanRangeError,
    ScanCurve,
    fit_fringe,
    simulate_scan,
    working_points,
)
from .estimator import (
    AnalysisError,
    BoundColumns,
    InsufficientStatisticsError,
    MeasuredStats,
    NoSinglePhotonBoundError,
    ProtocolParams,
    SecurityBounds,
    analyze_columns,
    analyze_row,
    binary_entropy,
)
from .link import (
    FitConvergenceError,
    LengthSweep,
    LinkModel,
    UnidentifiableDataError,
    expected_stats,
    fit_link,
    sweep_key_rate,
    transmittance,
)
from .sim import (
    SimConfig,
    SimTally,
    SoundnessReport,
    run_session,
    soundness_report,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BoundColumns",
    "FitConvergenceError",
    "FringeFit",
    "InsufficientScanRangeError",
    "InsufficientStatisticsError",
    "LengthSweep",
    "LinkModel",
    "MeasuredStats",
    "NoSinglePhotonBoundError",
    "ProtocolParams",
    "ScanCurve",
    "SecurityBounds",
    "SimConfig",
    "SimTally",
    "SoundnessReport",
    "UnidentifiableDataError",
    "analyze_columns",
    "analyze_row",
    "binary_entropy",
    "expected_stats",
    "fit_fringe",
    "fit_link",
    "run_session",
    "simulate_scan",
    "soundness_report",
    "sweep_key_rate",
    "transmittance",
    "working_points",
]
