"""equilib: numerical verification of measurement-based equilibration.

The package checks, at desk scale, the analytic bounds governing how a
time-evolving state becomes indistinguishable from its time average under a
fixed measurement: a universal sufficiency threshold, the classical
pure-state closed form and necessity threshold, the chaotic-mixture bound,
and the quantum spectral bound with its outcome-count corollary.
"""

from .core import (
    AverageEstimate,
    ConfigError,
    DimensionError,
    DistributionError,
    DomainError,
    EquilibrationReport,
    OutcomeDistribution,
    TimeAverageConfig,
    TrajectoryProbe,
    average_distinguishability,
    average_multi_distinguishability,
    check_sufficiency,
    decide_verdict,
    distinguishability,
    equilibration_report,
    sample_times,
    synthetic_probe,
    time_average_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "AverageEstimate",
    "ConfigError",
    "DimensionError",
    "DistributionError",
    "DomainError",
    "EquilibrationReport",
    "OutcomeDistribution",
    "TimeAverageConfig",
    "TrajectoryProbe",
    "average_distinguishability",
    "average_multi_distinguishability",
    "check_sufficiency",
    "decide_verdict",
    "distinguishability",
    "equilibration_report",
    "sample_times",
    "synthetic_probe",
    "time_average_distribution",
    "__version__",
]
