"""Declarative parallel parameter sweeps over the simulation scenario space.

This is the scale-out seam of the reproduction: experiments (and the
``python -m repro sweep`` CLI) describe *what* to run as a
:class:`SweepSpec` grid or an explicit list of :class:`RunSpec` objects,
and the :class:`SweepRunner` decides *how* — through a pluggable
:class:`~repro.sweeps.backends.ExecutionBackend` (serial in-process,
a work-stealing process pool, or socket workers)
— with append-only JSONL persistence, run-key resumption, and streamed
row consumption into the incremental analysis layer.  Results are
identical on every backend; ``tests/sweeps`` pins that guarantee.
"""

from .backends import (
    BackendStats,
    ExecutionBackend,
    SerialBackend,
    SocketBackend,
    WorkStealingBackend,
    WorkerHealth,
    backend_names,
    make_backend,
)
from .factories import (
    algorithm_names,
    error_model_names,
    make_algorithm,
    make_error_models,
    make_scheduler,
    make_workload,
    scheduler_names,
    validate_names,
    workload_names,
)
from .runner import (
    ROW_SOURCES,
    SweepProgress,
    SweepResult,
    SweepRunner,
    execute_run,
    load_completed_rows,
    run_sweep,
    strip_timing,
)
from .spec import K_SCHEDULERS, RunSpec, SweepSpec, check_unique_keys

__all__ = [
    "BackendStats",
    "ExecutionBackend",
    "K_SCHEDULERS",
    "ROW_SOURCES",
    "RunSpec",
    "SerialBackend",
    "SocketBackend",
    "SweepProgress",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "WorkStealingBackend",
    "WorkerHealth",
    "algorithm_names",
    "backend_names",
    "check_unique_keys",
    "error_model_names",
    "execute_run",
    "load_completed_rows",
    "make_algorithm",
    "make_backend",
    "make_error_models",
    "make_scheduler",
    "make_workload",
    "run_sweep",
    "scheduler_names",
    "strip_timing",
    "validate_names",
    "workload_names",
]
