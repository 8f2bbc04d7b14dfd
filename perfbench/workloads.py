"""The benchmark's three workloads, driven through the program's public entry points.

* ``round_mega`` — one planar ``kknps`` x ``ssync`` run on the ``grid``
  workload at n = 10^5, built through ``sweeps.runner.planar_setup`` and
  executed by ``Simulator.run`` (the batched round path).
* ``kasync_sweep`` — ``kknps(k=2)`` x ``k-async(k=2)`` on ``random``
  connected configurations (n = 200, ``distance-5-nonrigid`` error, random
  frames), a seed axis executed run by run through ``execute_run`` (the
  per-activation path, where the paper's theorem lives).
* ``seed_sweep_cached`` — ``kknps`` x ``ssync`` on ``grid`` at n = 10^3
  over one whole ``MAX_BUNDLE`` seed bundle: a cold sweep through
  ``SweepRunner(replicate_batch=True)`` into a fresh sqlite store, then the
  same ``SweepSpec`` resubmitted in a closed loop (one client) to an
  in-process ``JobManager`` on that store.

Each workload alternates set-up and a timed unit of work until the time
budget is spent, checks every output, and keeps the samples the metrics
are computed from.  Only the seed reaches the program, through the specs.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.engine.replicate as replicate_engine
import repro.sweeps.runner as runner
from repro.engine.simulator import Simulator
from repro.service.jobs import JobManager
from repro.store import ResultsStore
from repro.sweeps.replicate import MAX_BUNDLE
from repro.sweeps.spec import SweepSpec

from tracer import KASYNC_SWEEP, ROUND_MEGA, SEED_SWEEP_CACHED, Tracer

#: Separation slack of the cohesion oracle (the program's EPS is 1e-9).
_COHESION_SLACK = 1e-9


@dataclass
class Tally:
    """Samples and check outcomes of one measured section."""

    setup_s: List[float] = field(default_factory=list)
    #: Wall time of each timed unit of work.
    unit_s: List[float] = field(default_factory=list)
    #: Activations and runs each timed unit executed.
    unit_activations: List[int] = field(default_factory=list)
    unit_runs: List[int] = field(default_factory=list)
    #: Latency of each client-visible request, timed from outside.
    request_s: List[float] = field(default_factory=list)
    #: JobManager status timestamps per cached resubmission.
    service: Dict[str, List[float]] = field(default_factory=dict)
    #: Seconds spent inside timed parts (set-up and checks excluded).
    timed_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Record one checked outcome (a run, a row set or a resubmission)."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def crashed(self, what: str) -> None:
        """Record an attempt that raised (its traceback goes to stderr)."""
        self.attempted += 1
        self.failures.append(f"{what}: {traceback.format_exc(limit=3).strip()}")


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _row_digest(rows) -> str:
    stripped = [runner.strip_timing(row) for row in rows]
    return _digest(json.dumps(stripped, sort_keys=True).encode("utf-8"))


def _edges(arr: np.ndarray, visibility_range: float) -> np.ndarray:
    """The benchmark's own initial-edge oracle: pairs within ``V`` (dense)."""
    dx = arr[:, 0, None] - arr[None, :, 0]
    dy = arr[:, 1, None] - arr[None, :, 1]
    i, j = np.nonzero(np.triu(np.hypot(dx, dy) <= visibility_range + _COHESION_SLACK, 1))
    return np.stack([i, j], axis=1)


def _cohesive(edges: np.ndarray, final: np.ndarray, visibility_range: float) -> bool:
    """Every initial edge is still within range in ``final``."""
    if len(edges) == 0:
        return True
    diff = final[edges[:, 0]] - final[edges[:, 1]]
    return bool(np.hypot(diff[:, 0], diff[:, 1]).max() <= visibility_range + _COHESION_SLACK)


def _positions(configuration) -> np.ndarray:
    return np.array([(p.x, p.y) for p in configuration.positions], dtype=float)


@contextlib.contextmanager
def _tap(module, name: str, sink: list):
    """Keep the results ``module.name`` returns, so runs can be checked afterwards."""
    original = getattr(module, name)

    def tapped(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, tapped)
    try:
        yield
    finally:
        setattr(module, name, original)


def _until(seconds: float, minimum: int):
    """Indices 0, 1, ... while the next step fits in ``seconds``; at least ``minimum``.

    The next step is predicted to last as long as the previous one, so a
    run ends near its budget instead of overrunning it by up to one unit.
    """
    start = time.perf_counter()
    index = 0
    last = 0.0
    while True:
        begin = time.perf_counter()
        if index >= minimum and begin - start + last > seconds:
            return
        yield index
        last = time.perf_counter() - begin
        index += 1


class Workload:
    """Shared loops: the untraced measurement and the traced comparison run."""

    name = ""
    #: Timed units in the fixed work the traced run repeats.
    trace_units = 1
    #: Timed units every untraced run completes, however slow the host.
    min_units = 2

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def unit(self, index: int, tally: Tally) -> None:
        """Set up and run one timed unit of work, then check it."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Tally:
        tally = Tally()
        for index in _until(seconds, self.min_units):
            gc.collect()
            self.unit(index, tally)
        return tally

    def fixed_work(self, tally: Tally) -> None:
        """The fixed amount of work the traced run repeats."""
        for index in range(self.trace_units):
            gc.collect()
            self.unit(index, tally)

    def traced(self) -> Dict[str, object]:
        """The fixed work three times: warm-up, traced, then untraced for reference.

        The untraced repeat comes last so that neither timed section pays
        first-call costs; all three must produce the same outputs.
        """
        warm, traced, plain = Tally(), Tally(), Tally()
        tracer = Tracer()
        self.fixed_work(warm)
        with tracer:
            self.fixed_work(traced)
        self.fixed_work(plain)
        for tally in (traced, plain):
            tally.check(tally.digests == warm.digests, "outputs differ between repeats")
        missing = tracer.missing_probes(self.name)
        traced.check(not missing, f"probes that never fired: {missing}")
        return {"warm": warm, "traced": traced, "plain": plain, "tracer": tracer}


class RoundMega(Workload):
    """n = 10^5 planar kknps x ssync on the truncated grid, one run per unit."""

    name = ROUND_MEGA
    #: Four runs even on a slow host, so the tail is not the median of three.
    min_units = 4

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        self.n = 2500 if smoke else 100_000

    def unit(self, index: int, tally: Tally) -> None:
        started = time.perf_counter()
        spec = SweepSpec(
            algorithms=("kknps",),
            schedulers=("ssync",),
            workloads=("grid",),
            n_robots=(self.n,),
            seeds=(self.seed * 1000 + index,),
            max_activations=self.n,
        ).expand()[0]
        configuration, algorithm, scheduler, config = runner.planar_setup(spec)
        sim = Simulator(configuration.positions, algorithm, scheduler, config)
        ready = time.perf_counter()
        try:
            result = sim.run()
        except Exception:
            tally.crashed(f"run {spec.run_key}")
            return
        done = time.perf_counter()
        tally.setup_s.append(ready - started)
        tally.unit_s.append(done - ready)
        tally.request_s.append(done - ready)
        tally.timed_s += done - ready
        tally.unit_activations.append(result.activations_processed)
        tally.unit_runs.append(1)
        final = sim.positions_array()
        diameters = np.array(result.metrics.diameters(), dtype=float)
        tally.digests.append(_digest(final.tobytes() + diameters.tobytes()))
        tally.check(
            result.cohesion_maintained
            and result.metrics.monotone_hull_diameter()
            and (result.converged or result.activations_processed == spec.max_activations),
            f"run {spec.run_key}: cohesion, monotone diameter or activation count",
        )


class KAsyncSweep(Workload):
    """kknps(k=2) x k-async(k=2) random runs via ``execute_run``, a pass per unit."""

    name = KASYNC_SWEEP
    trace_units = 2

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        self.n = 40 if smoke else 200
        self.activations = 80 if smoke else 400
        self.pass_size = 2 if smoke else 4

    def unit(self, index: int, tally: Tally) -> None:
        started = time.perf_counter()
        first = (self.seed * 1000 + index) * self.pass_size
        runs = SweepSpec(
            algorithms=("kknps",),
            schedulers=("k-async",),
            workloads=("random",),
            n_robots=(self.n,),
            error_models=("distance-5-nonrigid",),
            seeds=tuple(range(first, first + self.pass_size)),
            scheduler_k=2,
            max_activations=self.activations,
        ).expand()
        inputs = [runner.planar_setup(spec)[0] for spec in runs]
        tally.setup_s.append(time.perf_counter() - started)
        results: list = []
        rows = []
        pass_s = 0.0
        activations = 0
        with _tap(runner, "run_simulation", results):
            for spec, configuration in zip(runs, inputs):
                begin = time.perf_counter()
                try:
                    row = runner.execute_run(spec)
                except Exception:
                    tally.crashed(f"run {spec.run_key}")
                    continue
                elapsed = time.perf_counter() - begin
                pass_s += elapsed
                tally.request_s.append(elapsed)
                activations += int(row["activations"])
                rows.append(row)
                result = results.pop() if results else None
                v = configuration.visibility_range
                tally.check(
                    result is not None
                    and row["cohesion"]
                    and result.metrics.monotone_hull_diameter()
                    and _cohesive(
                        _edges(_positions(configuration), v),
                        _positions(result.final_configuration),
                        v,
                    )
                    and row["initial_diameter"] == configuration.hull_diameter()
                    and (row["converged"] or row["activations"] == spec.max_activations),
                    f"run {spec.run_key}: cohesion, monotone diameter, inputs or activations",
                )
        tally.unit_s.append(pass_s)
        tally.timed_s += pass_s
        tally.unit_activations.append(activations)
        tally.unit_runs.append(len(rows))
        tally.digests.append(_row_digest(rows))


class SeedSweepCached(Workload):
    """One cold bundled sweep into a fresh store, then cached resubmissions."""

    name = SEED_SWEEP_CACHED
    #: Client poll interval while a resubmitted job runs.
    poll_s = 0.0005

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        self.n = 64 if smoke else 1000
        self.activations = 128 if smoke else 1000
        #: Resubmissions per JobManager; each of the two blocks starts a fresh
        #: manager, so latency does not drift with the manager's job history.
        self.block = 5 if smoke else 50
        first = seed * MAX_BUNDLE
        self.spec = SweepSpec(
            algorithms=("kknps",),
            schedulers=("ssync",),
            workloads=("grid",),
            n_robots=(self.n,),
            seeds=tuple(range(first, first + MAX_BUNDLE)),
            max_activations=self.activations,
        )
        self.cold_rows: Optional[List[Dict[str, object]]] = None
        self.store_path = scratch / "cold.sqlite"

    def unit(self, index: int, tally: Tally) -> None:
        """One cold sweep: fresh store, replicate-batched runner, checked rows."""
        for stale in self.scratch.glob(self.store_path.name + "*"):
            stale.unlink()
        started = time.perf_counter()
        runs = self.spec.expand()
        store = ResultsStore(self.store_path)
        sweep = runner.SweepRunner(runs, replicate_batch=True, store=store)
        ready = time.perf_counter()
        results: list = []
        arrivals: List[float] = []
        try:
            with _tap(replicate_engine, "run_replicated_simulations", results):
                outcome = sweep.run(
                    on_row=lambda *_: arrivals.append(time.perf_counter())
                )
        except Exception:
            tally.crashed(f"cold sweep {index}")
            return
        finally:
            store.close()
        done = time.perf_counter()
        tally.setup_s.append(ready - started)
        tally.unit_s.append(done - ready)
        tally.timed_s += done - ready
        tally.request_s.extend(arrival - ready for arrival in arrivals)
        tally.unit_runs.append(len(outcome.rows))
        tally.unit_activations.append(sum(int(row["activations"]) for row in outcome.rows))
        lanes = [result for batch in results for result in batch]
        configuration = runner.planar_setup(runs[0])[0]
        v = configuration.visibility_range
        edges = _edges(_positions(configuration), v)
        for row in outcome.rows:
            tally.check(bool(row["cohesion"]), f"cold row {row['run_key']}: cohesion")
        tally.check(
            outcome.executed == len(runs)
            and len(lanes) == len(runs)
            and all(r.metrics.monotone_hull_diameter() for r in lanes)
            and all(_cohesive(edges, _positions(r.final_configuration), v) for r in lanes),
            f"cold sweep {index}: executed count, monotone diameter or cohesion oracle",
        )
        rows = [runner.strip_timing(row) for row in outcome.rows]
        if self.cold_rows is None:
            self.cold_rows = rows
        tally.check(rows == self.cold_rows, f"cold sweep {index}: rows differ from the first")
        tally.digests.append(_row_digest(outcome.rows))

    def resubmit(self, manager: JobManager, tally: Tally) -> None:
        """One closed-loop resubmission of the cold sweep's spec, checked."""
        begin = time.perf_counter()
        job_id = manager.submit(self.spec)
        while True:
            status = manager.status(job_id)
            if status["state"] in ("done", "failed"):
                break
            time.sleep(self.poll_s)
        observed = time.time()
        latency = time.perf_counter() - begin
        tally.timed_s += latency
        if status["state"] != "done":
            tally.check(False, f"resubmission {job_id}: {status['error']}")
            return
        service = tally.service
        service.setdefault("resubmit_s", []).append(latency)
        service.setdefault("queue_wait_s", []).append(status["started_at"] - status["submitted_at"])
        service.setdefault("exec_s", []).append(status["finished_at"] - status["started_at"])
        service.setdefault("observe_lag_s", []).append(observed - status["finished_at"])
        rows = manager.results(job_id, include_rows=True)["rows"]
        service.setdefault("rows", []).append(len(rows))
        tally.check(
            status["store_hits"] == len(self.cold_rows)
            and status["executed"] == 0
            and [runner.strip_timing(row) for row in rows] == self.cold_rows,
            f"resubmission {job_id}: rows not all served from the store, or differ from cold",
        )

    def _cached_phase(self, tally: Tally) -> None:
        """Two blocks of closed-loop resubmissions, each to a fresh JobManager."""
        for _ in range(2):
            gc.collect()
            jobs_dir = Path(tempfile.mkdtemp(prefix="jobs-", dir=self.scratch))
            try:
                with JobManager(self.store_path, jobs_dir, executors=1) as manager:
                    for _ in range(self.block):
                        try:
                            self.resubmit(manager, tally)
                        except Exception:
                            tally.crashed("resubmission")
            finally:
                shutil.rmtree(jobs_dir, ignore_errors=True)

    def measure(self, seconds: float) -> Tally:
        tally = super().measure(seconds)
        if self.cold_rows is not None:
            self._cached_phase(tally)
        return tally

    def fixed_work(self, tally: Tally) -> None:
        gc.collect()
        self.unit(0, tally)
        if self.cold_rows is not None:
            self._cached_phase(tally)


WORKLOADS: Dict[str, Callable[[int, bool, Path], Workload]] = {
    ROUND_MEGA: RoundMega,
    KASYNC_SWEEP: KAsyncSweep,
    SEED_SWEEP_CACHED: SeedSweepCached,
}


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: List[float]) -> float:
    """The highest order statistic with at least ten samples above it.

    With fewer than forty samples the rule keeps a quarter of them above
    (at least one), so the tail is never a single extreme sample.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    above = min(10, max(1, len(ordered) // 4))
    return float(ordered[max(0, len(ordered) - above - 1)])
