"""Event-driven continuous-time simulation engine for the OBLOT model."""

from .convergence import (
    ConvergenceSummary,
    epochs,
    epochs_to_converge,
    rounds_to_halve,
    summarize,
    time_to_halve,
)
from .metrics import MetricsCollector, MetricsSample
from .recorder import TrajectoryRecorder
from .simulator import SimulationConfig, SimulationResult, Simulator, run_simulation

__all__ = [
    "ConvergenceSummary",
    "MetricsCollector",
    "MetricsSample",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "TrajectoryRecorder",
    "epochs",
    "epochs_to_converge",
    "rounds_to_halve",
    "run_simulation",
    "summarize",
    "time_to_halve",
]
