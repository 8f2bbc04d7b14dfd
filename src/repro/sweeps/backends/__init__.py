"""Pluggable execution backends for the sweep runner.

The :class:`~repro.sweeps.runner.SweepRunner` delegates *how* runs
execute to an :class:`ExecutionBackend`; three ship with the repo:

``serial``
    One run after another in the calling process — the reference
    semantics every other backend must reproduce bit-identically, and
    the default with one worker.
``work-stealing``
    Cost-ordered per-worker deques with dynamic chunking and
    steal-on-idle, so an expensive tail spreads across the workers —
    the default with more than one worker.
``socket``
    A churn-tolerant coordinator and N worker processes over TCP
    speaking length-prefixed JSON frames — the remote-worker seam.
    Chunks are leased and requeued on worker loss; the listener admits
    late-joining workers (gated by an auth token) for the sweep's whole
    lifetime.

All backends yield ``(run_key, row)`` pairs as runs complete and report
worker health via :meth:`ExecutionBackend.stats`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .base import (
    BackendStats,
    ExecutionBackend,
    RowResult,
    RunFunction,
    WorkerHealth,
    iter_rows,
)
from .serial import SerialBackend
from .socket_backend import SocketBackend, SocketProtocolError
from .work_stealing import WorkStealingBackend

#: Registry of constructable backend names.
BACKENDS: Dict[str, type] = {
    SerialBackend.name: SerialBackend,
    WorkStealingBackend.name: WorkStealingBackend,
    SocketBackend.name: SocketBackend,
}


def backend_names() -> Tuple[str, ...]:
    """The registered backend names, in registry order."""
    return tuple(BACKENDS)


def make_backend(
    name: str,
    *,
    workers: int = 1,
    run_fn: Optional[RunFunction] = None,
    socket_options: Optional[Dict[str, object]] = None,
) -> ExecutionBackend:
    """Construct a backend by registry name.

    ``workers`` is applied where the backend accepts it; the serial
    backend ignores it.  ``socket_options`` are extra keyword arguments
    for the socket backend (``token``, ``lost_after_s``, ``port``, ...)
    and are rejected for any other backend.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(BACKENDS)
        raise ValueError(f"unknown backend {name!r}; known: {known}") from None
    if cls is SocketBackend:
        return SocketBackend(workers=workers, run_fn=run_fn, **(socket_options or {}))
    if socket_options:
        raise ValueError(
            f"socket_options only apply to the socket backend, not {name!r}"
        )
    if cls is SerialBackend:
        return SerialBackend(run_fn=run_fn)
    return WorkStealingBackend(workers=workers, run_fn=run_fn)


__all__ = [
    "BACKENDS",
    "BackendStats",
    "ExecutionBackend",
    "RowResult",
    "RunFunction",
    "SerialBackend",
    "SocketBackend",
    "SocketProtocolError",
    "WorkStealingBackend",
    "WorkerHealth",
    "backend_names",
    "iter_rows",
    "make_backend",
]
