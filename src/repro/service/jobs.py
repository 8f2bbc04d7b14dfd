"""Job lifecycle of the sweep service: submit, queue, execute, observe.

A :class:`JobManager` owns a FIFO of submitted sweeps and a small pool
of executor threads.  Each job runs through the ordinary
:class:`~repro.sweeps.runner.SweepRunner` with the shared results store
attached, so all of the store's semantics — global dedup, claims,
crash-safe ingest — apply unchanged; the manager only adds bookkeeping:

* **Status** is a plain dict (JSON-ready): state, row counts by origin,
  cost-model progress and ETA.  While a job is queued the ETA is the
  summed ``cost_hint`` of its expansion; while it runs, the runner's
  live cost-weighted estimate.
* **Results** are built from a per-job
  :class:`~repro.analysis.streaming.StreamingAggregator` fed by the
  runner's ``on_row`` callback with expansion-order indices, so the
  table is exact mid-run and **bit-identical** to the batch table when
  the job finishes — regardless of arrival order or how many rows came
  from the store.

Concurrent jobs with overlapping grids are safe (that is the point):
their runners coordinate through store claims, so each run key is
computed once and every job still returns its full row set.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from ..analysis.streaming import StreamingAggregator
from ..sweeps.runner import SweepProgress, SweepRunner, backend_name
from ..sweeps.spec import SweepSpec

#: The job lifecycle.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class _Job:
    """One submitted sweep (mutable, guarded by the manager's lock)."""

    job_id: str
    spec: SweepSpec
    options: Dict[str, object]
    state: str = "queued"
    error: Optional[str] = None
    total: int = 0
    cost_total: float = 0.0
    cost_done: float = 0.0
    eta_s: Optional[float] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    executed: int = 0
    resumed: int = 0
    store_hits: int = 0
    sources: Dict[str, int] = field(default_factory=dict)
    aggregator: StreamingAggregator = field(default_factory=StreamingAggregator)
    rows_by_order: Dict[int, Dict[str, object]] = field(default_factory=dict)


class JobManager:
    """Queue and execute sweep jobs against one shared results store."""

    def __init__(
        self,
        store_path: Union[str, Path],
        jobs_dir: Union[str, Path],
        *,
        workers: int = 1,
        backend: Optional[str] = None,
        executors: int = 1,
        claim_ttl_s: float = 3600.0,
    ) -> None:
        if executors < 1:
            raise ValueError("the manager needs at least one executor thread")
        self.store_path = Path(store_path)
        self.jobs_dir = Path(jobs_dir)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.backend = backend
        self.executors = executors
        self.claim_ttl_s = claim_ttl_s
        self._jobs: Dict[str, _Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._shutdown = threading.Event()
        self._sequence = 0

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Spawn the executor threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.executors):
            thread = threading.Thread(
                target=self._executor_loop,
                name=f"sweep-job-executor-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the executors."""
        self._shutdown.set()
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)
        self._threads = []

    def __enter__(self) -> "JobManager":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # submission and observation

    def submit(
        self,
        spec: Union[SweepSpec, Mapping[str, object]],
        *,
        options: Optional[Mapping[str, object]] = None,
    ) -> str:
        """Queue one sweep; returns its job id.

        ``spec`` is a :class:`SweepSpec` or its ``to_dict`` form (what
        the HTTP API receives).  ``options`` may carry ``workers`` and
        ``backend`` overrides for this job; anything else is rejected so
        client typos fail loudly.
        """
        if self._shutdown.is_set():
            raise RuntimeError("the job manager is shutting down")
        if not isinstance(spec, SweepSpec):
            spec = SweepSpec.from_dict(spec)
        opts = dict(options or {})
        unknown = set(opts) - {"workers", "backend"}
        if unknown:
            raise ValueError(f"unknown job options: {sorted(unknown)}")
        runs = spec.expand()
        cost_total = sum(run.cost_hint() for run in runs)
        digest = hashlib.sha1(
            json.dumps(spec.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()[:8]
        with self._lock:
            self._sequence += 1
            job_id = f"job-{self._sequence:04d}-{digest}"
            self._jobs[job_id] = _Job(
                job_id=job_id,
                spec=spec,
                options=opts,
                total=len(runs),
                cost_total=cost_total,
                eta_s=cost_total,
                submitted_at=time.time(),
            )
        self._queue.put(job_id)
        return job_id

    def status(self, job_id: str) -> Dict[str, object]:
        """One job's status snapshot (raises ``KeyError`` for unknown ids)."""
        with self._lock:
            job = self._jobs[job_id]
            return self._status_locked(job)

    def _status_locked(self, job: _Job) -> Dict[str, object]:
        done = len(job.rows_by_order)
        workers = job.options.get("workers", self.workers)
        elapsed = None
        if job.started_at is not None:
            end = job.finished_at if job.finished_at is not None else time.time()
            elapsed = end - job.started_at
        return {
            "job_id": job.job_id,
            "state": job.state,
            "error": job.error,
            "total": job.total,
            "done": done,
            "executed": job.executed,
            "resumed": job.resumed,
            "store_hits": job.store_hits,
            "sources": dict(job.sources),
            "cost_total": job.cost_total,
            "cost_done": job.cost_done,
            "eta_s": job.eta_s,
            "elapsed_s": elapsed,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "workers": workers,
            "backend": backend_name(job.options.get("backend", self.backend), workers),
        }

    def list_jobs(self) -> List[Dict[str, object]]:
        """Status snapshots of every known job, oldest first."""
        with self._lock:
            return [self._status_locked(job) for job in self._jobs.values()]

    def results(
        self, job_id: str, *, include_rows: bool = False
    ) -> Dict[str, object]:
        """A job's live results: the aggregate table (and optionally rows).

        Valid at any point of the lifecycle — mid-run it covers the rows
        that have landed so far; after completion it is bit-identical to
        the batch table over the full sweep.
        """
        with self._lock:
            job = self._jobs[job_id]
            executed = job.sources.get("executed", 0)
            table = job.aggregator.to_table(
                executed=executed,
                resumed=job.aggregator.rows_added - executed,
            )
            payload: Dict[str, object] = {
                "job_id": job.job_id,
                "state": job.state,
                "rows_added": job.aggregator.rows_added,
                "total": job.total,
                "table": table.render(),
            }
            if include_rows:
                payload["rows"] = [
                    job.rows_by_order[index] for index in sorted(job.rows_by_order)
                ]
            return payload

    # ------------------------------------------------------------------
    # execution

    def _executor_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs[job_id]
                job.state = "running"
                job.started_at = time.time()
            try:
                self._run_job(job)
            except Exception as error:  # surface, never kill the executor
                with self._lock:
                    job.state = "failed"
                    job.error = f"{type(error).__name__}: {error}"
                    job.finished_at = time.time()

    def _run_job(self, job: _Job) -> None:
        def on_row(run_key: str, row: Dict[str, object], order: int, source: str) -> None:
            with self._lock:
                job.aggregator.add_row(row, order=order)
                job.rows_by_order[order] = row
                job.sources[source] = job.sources.get(source, 0) + 1

        def on_tick(tick: SweepProgress) -> None:
            with self._lock:
                job.cost_done = tick.cost_done
                job.eta_s = tick.eta_s

        runner = SweepRunner(
            job.spec,
            workers=int(job.options.get("workers", self.workers)),
            backend=job.options.get("backend", self.backend),
            jsonl_path=self.jobs_dir / f"{job.job_id}.jsonl",
            store=self.store_path,
            store_claim_ttl_s=self.claim_ttl_s,
            sweep_label=job.job_id,
        )
        result = runner.run(on_row=on_row, stream_progress=on_tick)
        with self._lock:
            job.state = "done"
            job.executed = result.executed
            job.resumed = result.resumed
            job.store_hits = result.store_hits
            job.eta_s = 0.0
            job.cost_done = job.cost_total
            job.finished_at = time.time()
