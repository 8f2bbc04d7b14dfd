"""Sweep execution over pluggable backends, with JSONL persistence and resumption.

The runner is deliberately boring: :func:`execute_run` is a pure function
from a :class:`~repro.sweeps.spec.RunSpec` to a flat, JSON-serializable
result row, and :class:`SweepRunner` maps it over the runs through an
:class:`~repro.sweeps.backends.ExecutionBackend` — serial in-process (the
reference semantics), a work-stealing process pool, or socket workers.
Because every run rebuilds its workload, algorithm, scheduler and RNG
from the spec's names and seed, a row is identical no matter which
process produced it; the only field that varies between executions is
``wall_time_s``, which :data:`TIMING_FIELDS` names so comparisons can
drop it.

Consumption is incremental: the runner appends each row to the JSONL
file **as it arrives** from the backend (crash-safe — a sweep killed
mid-run resumes losslessly), folds it into a
:class:`~repro.analysis.streaming.StreamingAggregator`, and drives the
progress callbacks with a cost-model ETA.  On re-run with
``resume=True`` the runner loads the completed run keys from the file
and executes only the missing runs.

Two layers of dedup stack on top of each other:

* **Per-sweep** — the JSONL file: completed keys found in it are never
  executed again (the original resume contract).
* **Global** — an optional :class:`~repro.store.ResultsStore`
  (``store=``): before dispatching to any backend the runner asks the
  store for every missing key and short-circuits hits straight into the
  row stream, bit-identical to recomputation.  Keys it will execute are
  *claimed* in the store so concurrent runners sharing the file compute
  each key exactly once between them — unclaimed keys are awaited and
  served from the peer's ingest (or stolen and executed locally when
  the claim's owner dies).  Every fresh row is written back through the
  store's crash-safe ingest path, and rows resumed from legacy JSONL
  files are imported on the way.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.streaming import StreamingAggregator
from ..analysis.tables import TextTable
from ..engine.convergence import epochs_to_converge
from ..engine.simulator import SimulationConfig, run_simulation
from .backends import (
    BackendStats,
    ExecutionBackend,
    backend_names,
    make_backend,
)
from .factories import (
    activation_probability3,
    error_model3_xi,
    is_round_discipline3,
    make_algorithm,
    make_error_models,
    make_scheduler,
    make_scheduler3,
    make_workload,
    run_dimension,
)
from .spec import RunSpec, SweepSpec, check_unique_keys

#: Row fields that vary between executions of the same spec (dropped when
#: comparing parallel against serial results): wall time, and the
#: replicate-batching provenance marker (``batched_replicates`` is the
#: bundle size on rows the batched executor produced, absent on serial
#: rows — same results, different execution).
TIMING_FIELDS = ("wall_time_s", "batched_replicates")

#: How a row entered a sweep's row stream (the ``on_row`` callback's
#: ``source`` argument).
ROW_SOURCES = ("executed", "resumed", "store", "peer")


def planar_setup(spec: RunSpec):
    """Build the live objects for one planar run from its spec.

    Returns ``(configuration, algorithm, scheduler, config)`` — the exact
    inputs :func:`execute_run` feeds to the engine, factored out so the
    replicate-batched path (:mod:`repro.sweeps.replicate`) constructs
    bit-identical lanes.
    """
    configuration = make_workload(
        spec.workload, spec.n_robots, spec.seed, spec.visibility_range
    )
    algorithm = make_algorithm(spec.algorithm, spec.algorithm_params)
    scheduler = make_scheduler(spec.scheduler, spec.scheduler_k)
    perception, motion = make_error_models(spec.error_model)
    config = SimulationConfig(
        visibility_range=configuration.visibility_range,
        perception=perception,
        motion=motion,
        seed=spec.seed,
        max_activations=spec.max_activations,
        convergence_epsilon=spec.epsilon,
        k_bound=spec.k_bound,
    )
    return configuration, algorithm, scheduler, config


def planar_row(spec: RunSpec, result, wall_time_s: float) -> Dict[str, object]:
    """Assemble the flat result row for one completed planar run.

    Shared verbatim between :func:`execute_run` and the bundle executor so
    a replicate-batched row matches the serial row field-for-field (only
    :data:`TIMING_FIELDS` may differ).  Every measured field is read from
    the :class:`~repro.engine.simulator.SimulationResult` — its t=0 and
    final metrics samples and its initial-edge index arrays — so building
    a row costs O(|E|) for the initial visibility edges E, not O(n^2).
    """
    return {
        "run_key": spec.run_key,
        "dimension": 2,
        "algorithm": spec.algorithm,
        "scheduler": spec.scheduler,
        "workload": spec.workload,
        "n_robots": len(result.initial_positions),
        "seed": spec.seed,
        "error_model": spec.error_model,
        "scheduler_k": spec.scheduler_k,
        "k_bound": spec.k_bound,
        "epsilon": spec.epsilon,
        "max_activations": spec.max_activations,
        "visibility_range": result.visibility_range,
        "converged": result.converged,
        "convergence_time": result.convergence_time,
        "cohesion": result.cohesion_maintained,
        "activations": result.activations_processed,
        "epochs": result.epochs_to_converge(spec.epsilon),
        "samples": len(result.metrics.samples),
        "initial_diameter": result.initial_hull_diameter,
        "final_diameter": result.final_hull_diameter,
        "final_min_pairwise": result.final_min_pairwise_distance,
        "max_edge_stretch": result.max_edge_stretch,
        "simulated_time": result.final_time,
        "wall_time_s": wall_time_s,
    }


def execute_run(spec: RunSpec) -> Dict[str, object]:
    """Execute one run spec and return its flat result row.

    The row contains only JSON-serializable scalars, is independent of the
    executing process, and is keyed by ``spec.run_key`` for resumption.
    Specs whose names resolve to the 3D registries execute on the 3D
    round engine (:func:`_execute_run3`); everything else runs the planar
    continuous-time engine.
    """
    if run_dimension(spec.algorithm, spec.scheduler, spec.workload, spec.error_model) == 3:
        return _execute_run3(spec)
    started = time.perf_counter()
    configuration, algorithm, scheduler, config = planar_setup(spec)
    result = run_simulation(configuration.positions, algorithm, scheduler, config)
    return planar_row(spec, result, time.perf_counter() - started)


def _execute_run3(spec: RunSpec) -> Dict[str, object]:
    """Execute one 3D run spec, same row contract as the planar path.

    Round disciplines (``fsync3``/``ssync3``) run the round engine; the
    continuous-time 3D schedulers (``kasync3``/``nesta3``/``async3``) run
    the unified kernel's 3D instantiation with the full error-model
    registry (minus the planar-only angular distortions).
    """
    if not is_round_discipline3(spec.scheduler):
        return _execute_run3_async(spec)
    return _execute_run3_round(spec)


def _execute_run3_round(spec: RunSpec) -> Dict[str, object]:
    """Execute one 3D round-engine run spec.

    The mapping from the spec's planar-flavoured fields:

    * ``max_activations`` bounds the number of *rounds* (the round engine's
      scheduling quantum); the ``activations`` row field still reports
      individual robot activations, and ``rounds`` reports rounds.
    * ``error_model`` selects the rigidity bound ``xi`` (the round loop has
      no perception-error machinery), via ``ERROR_MODEL3_XI``.
    * ``simulated_time`` is the executed round count as a float.
    """
    from ..spatial3d import Simulation3Config, run_simulation3

    started = time.perf_counter()
    configuration = make_workload(
        spec.workload, spec.n_robots, spec.seed, spec.visibility_range
    )
    algorithm = make_algorithm(spec.algorithm, spec.algorithm_params)
    result = run_simulation3(
        configuration.positions,
        algorithm,
        Simulation3Config(
            visibility_range=configuration.visibility_range,
            max_rounds=spec.max_activations,
            convergence_epsilon=spec.epsilon,
            activation_probability=activation_probability3(spec.scheduler),
            xi=error_model3_xi(spec.error_model),
            seed=spec.seed,
        ),
    )
    elapsed = float(result.rounds_executed)
    return _row3(
        spec, configuration, result, started,
        convergence_time=elapsed if result.converged else None,
        activations=result.activations_executed,
        rounds=result.rounds_executed,
        epochs=None,
        samples=len(result.diameter_history),
        simulated_time=elapsed,
    )


def _execute_run3_async(spec: RunSpec) -> Dict[str, object]:
    """Execute one continuous-time 3D run spec on the unified kernel.

    The field mapping matches the planar path: ``max_activations`` bounds
    individual activations, ``error_model`` resolves through the full
    registry to a (perception, motion) pair, ``epochs`` is computed from
    the activation end times, and ``simulated_time`` is the final global
    time.  ``rounds`` is None — continuous time has no rounds.
    """
    from ..spatial3d import AsyncSimulation3Config, run_simulation3_async

    started = time.perf_counter()
    configuration = make_workload(
        spec.workload, spec.n_robots, spec.seed, spec.visibility_range
    )
    algorithm = make_algorithm(spec.algorithm, spec.algorithm_params)
    scheduler = make_scheduler3(spec.scheduler, spec.scheduler_k)
    perception, motion = make_error_models(spec.error_model)
    result = run_simulation3_async(
        configuration.positions,
        algorithm,
        scheduler,
        AsyncSimulation3Config(
            visibility_range=configuration.visibility_range,
            perception=perception,
            motion=motion,
            seed=spec.seed,
            max_activations=spec.max_activations,
            convergence_epsilon=spec.epsilon,
        ),
    )
    return _row3(
        spec, configuration, result, started,
        convergence_time=result.convergence_time,
        activations=result.activations_processed,
        rounds=None,
        epochs=epochs_to_converge(result.end_times, result.metrics.samples, spec.epsilon),
        samples=len(result.metrics.samples),
        simulated_time=result.final_time,
    )


def _row3(
    spec: RunSpec,
    configuration,
    result,
    started: float,
    *,
    convergence_time,
    activations: int,
    rounds,
    epochs,
    samples: int,
    simulated_time: float,
) -> Dict[str, object]:
    """The flat row of one finished 3D run, either engine.

    Like :func:`planar_row`, every measure is the run's own: the diameters
    and the minimum separation come from the t=0 and final full samples
    of ``result.metrics``, the edge stretch from its initial edges.  No
    ``Configuration3`` measure is rebuilt and no ``(n, n)`` matrix built.
    """
    metrics = result.metrics
    final = metrics.latest()
    return {
        "run_key": spec.run_key,
        "dimension": 3,
        "algorithm": spec.algorithm,
        "scheduler": spec.scheduler,
        "workload": spec.workload,
        "n_robots": len(configuration),
        "seed": spec.seed,
        "error_model": spec.error_model,
        "scheduler_k": spec.scheduler_k,
        "k_bound": spec.k_bound,
        "epsilon": spec.epsilon,
        "max_activations": spec.max_activations,
        "visibility_range": configuration.visibility_range,
        "converged": result.converged,
        "convergence_time": convergence_time,
        "cohesion": result.cohesion_maintained,
        "activations": activations,
        "rounds": rounds,
        "epochs": epochs,
        "samples": samples,
        "initial_diameter": metrics.samples[0].hull_diameter,
        "final_diameter": final.hull_diameter,
        "final_min_pairwise": final.min_pairwise_distance,
        "max_edge_stretch": metrics.max_edge_stretch(result.final_positions),
        "simulated_time": simulated_time,
        "wall_time_s": time.perf_counter() - started,
    }


def strip_timing(row: Dict[str, object]) -> Dict[str, object]:
    """A copy of ``row`` without the execution-dependent timing fields."""
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}


@dataclass
class SweepProgress:
    """One tick of the streamed progress callback (after every row)."""

    done: int
    total: int
    run_key: str
    cost_done: float
    cost_total: float
    elapsed_s: float
    eta_s: Optional[float]
    aggregate: Dict[str, object]

    @property
    def cost_fraction(self) -> float:
        """Cost-weighted completion in ``[0, 1]`` (what the ETA is based on)."""
        if self.cost_total <= 0:
            return 1.0 if self.done >= self.total else 0.0
        return min(1.0, self.cost_done / self.cost_total)


@dataclass
class SweepResult:
    """All result rows of a sweep, in the deterministic expansion order."""

    rows: List[Dict[str, object]] = field(default_factory=list)
    #: Runs this invocation computed itself.
    executed: int = 0
    #: Rows reloaded from this sweep's own JSONL file.
    resumed: int = 0
    #: Rows served from the shared results store instead of computed —
    #: direct cache hits plus rows a concurrent peer computed while this
    #: runner waited on the peer's claim.  The three counters partition
    #: the sweep: ``executed + resumed + store_hits == len(rows)``.
    store_hits: int = 0
    aggregator: Optional[StreamingAggregator] = None
    stats: Optional[BackendStats] = None

    def __len__(self) -> int:
        return len(self.rows)

    def deterministic_rows(self) -> List[Dict[str, object]]:
        """The rows without timing fields (equal across backends)."""
        return [strip_timing(row) for row in self.rows]

    def row_for(self, run_key: str) -> Optional[Dict[str, object]]:
        """The row of one run key, if present."""
        for row in self.rows:
            if row["run_key"] == run_key:
                return row
        return None

    def to_table(self) -> TextTable:
        """Aggregate table: one line per (algorithm, scheduler, workload, error).

        Rendered from the streaming aggregator the runner maintained while
        rows arrived; built on demand (in row order) for results assembled
        without one.  Both paths produce the identical table —
        ``tests/analysis/test_streaming.py`` pins the equality.
        """
        aggregator = self.aggregator
        if aggregator is None or aggregator.rows_added != len(self.rows):
            aggregator = StreamingAggregator()
            for row in self.rows:
                aggregator.add_row(row)
        # The table's title lumps store hits under "resumed": both are
        # rows this invocation did not execute.
        return aggregator.to_table(
            executed=self.executed, resumed=self.resumed + self.store_hits
        )


def _repair_sidecar_path(path: Path) -> Path:
    """Where ``load_completed_rows`` records repairs for ``path``."""
    return path.with_name(path.name + ".repairs")


def _load_repair_records(path: Path) -> Dict[int, str]:
    """Known-bad line records (offset -> sha1) from the repair sidecar.

    An unreadable or malformed sidecar is treated as empty — the only
    consequence is that a warning fires once more.
    """
    sidecar = _repair_sidecar_path(path)
    if not sidecar.exists():
        return {}
    try:
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
        return {
            int(entry["offset"]): str(entry["sha1"])
            for entry in payload.get("skipped", ())
        }
    except (OSError, ValueError, TypeError, KeyError):
        return {}


def _save_repair_records(
    path: Path, skipped: Dict[int, str], truncations: List[Dict[str, object]]
) -> None:
    """Persist the repair record next to the JSONL file (best effort)."""
    sidecar = _repair_sidecar_path(path)
    payload = {
        "version": 1,
        "skipped": [
            {"offset": offset, "sha1": digest}
            for offset, digest in sorted(skipped.items())
        ],
    }
    if truncations:
        existing: List[Dict[str, object]] = []
        try:
            old = json.loads(sidecar.read_text(encoding="utf-8"))
            existing = list(old.get("truncations", ()))
        except (OSError, ValueError, TypeError):
            pass
        payload["truncations"] = existing + truncations
    try:
        sidecar.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    except OSError:  # pragma: no cover - read-only result directories
        pass


def load_completed_rows(
    jsonl_path: Union[str, Path], *, repair: bool = True
) -> Dict[str, Dict[str, object]]:
    """Completed rows keyed by run key, from an existing JSONL result file.

    A process killed mid-append leaves an unterminated trailing line.
    With ``repair=True`` (the default) that partial line — recognised by
    its missing newline, since the runner always writes whole
    ``row + "\\n"`` lines — is dropped **and removed from the file**,
    with a warning, so subsequent appends start on a clean line boundary
    and the poisoned line cannot shadow its re-executed run.
    Newline-terminated lines that fail to parse (or carry no run key)
    are skipped with a warning wherever they appear; their runs simply
    execute again.  Skipped lines are left in place (the runner does not
    destroy data it does not own) but recorded in a ``.repairs`` sidecar
    so every warning is **one-shot**: a later resume of the same file
    skips the same bytes silently.
    """
    path = Path(jsonl_path)
    completed: Dict[str, Dict[str, object]] = {}
    if not path.exists():
        return completed
    known_bad = _load_repair_records(path)
    new_bad: Dict[int, str] = {}
    truncations: List[Dict[str, object]] = []
    data = path.read_bytes()
    truncate_at: Optional[int] = None
    unterminated_row = False
    position = 0
    while position < len(data):
        newline = data.find(b"\n", position)
        end = len(data) if newline == -1 else newline + 1
        line = data[position : newline if newline != -1 else len(data)]
        raw = line.strip()
        if raw:
            row: Optional[Dict[str, object]] = None
            try:
                parsed = json.loads(raw.decode("utf-8"))
                if isinstance(parsed, dict) and isinstance(parsed.get("run_key"), str):
                    row = parsed
            except (json.JSONDecodeError, UnicodeDecodeError):
                row = None
            if row is not None:
                completed[row["run_key"]] = row
                # A complete row whose newline never hit the disk: keep it,
                # but the file must be terminated before the next append
                # merges two rows onto one line.
                unterminated_row = newline == -1
            elif newline == -1:
                truncate_at = position
            else:
                digest = hashlib.sha1(line).hexdigest()
                if known_bad.get(position) != digest:
                    warnings.warn(
                        f"skipping JSONL line without a parseable sweep row at byte "
                        f"{position} of {path}"
                    )
                    new_bad[position] = digest
        position = end
    if truncate_at is not None:
        if repair:
            warnings.warn(
                f"dropping truncated trailing JSONL line in {path} "
                "(crash mid-append?); rewriting the file for a clean resume"
            )
            truncations.append(
                {
                    "offset": truncate_at,
                    "dropped_sha1": hashlib.sha1(data[truncate_at:]).hexdigest(),
                }
            )
            with path.open("r+b") as handle:
                handle.truncate(truncate_at)
        else:
            warnings.warn(
                f"ignoring truncated trailing JSONL line in {path}; "
                "its run will execute again"
            )
    elif unterminated_row and repair:
        warnings.warn(
            f"terminating the unterminated final JSONL line in {path} "
            "(crash between row and newline?) so appends start on a clean line"
        )
        with path.open("ab") as handle:
            handle.write(b"\n")
    if repair and (new_bad or truncations):
        _save_repair_records(path, {**known_bad, **new_bad}, truncations)
    return completed


#: Signature of the optional per-row callback: ``(run_key, row, order
#: index in the expansion, source)`` with source one of :data:`ROW_SOURCES`.
RowCallback = Callable[[str, Dict[str, object], int, str], None]


def backend_name(backend: Optional[str], workers: int) -> str:
    """The backend a sweep over ``workers`` workers runs on, by name.

    A named backend runs as named.  With none named, one worker runs
    serially and more run on work-stealing.
    """
    if backend is not None:
        return backend
    return "serial" if workers == 1 else "work-stealing"


class SweepRunner:
    """Execute a sweep's runs through a backend, persisting rows as they finish.

    ``runs`` may be a :class:`SweepSpec` (expanded on construction) or an
    explicit sequence of :class:`RunSpec` objects (how the registry
    experiments express ablations the grid cannot).  ``backend`` selects
    the execution strategy by registry name (``serial``, ``work-stealing``,
    ``socket``) or as a pre-built
    :class:`~repro.sweeps.backends.ExecutionBackend`; when omitted,
    ``workers == 1`` selects the serial reference backend and
    ``workers > 1`` the work-stealing pool.  Every backend produces the
    same rows (timing aside); only completion order (and so the JSONL's
    line order) differs, and the returned result is always in expansion
    order.

    ``store`` (path or open :class:`~repro.store.ResultsStore`) plugs the
    sweep into the global results database: hits short-circuit, fresh
    rows are ingested back, and claims coordinate concurrent runners
    sharing the file (see the module docstring).  ``store_claim_ttl_s``
    bounds how long a peer's claim is honoured without proof of life;
    ``store_poll_s`` paces the wait for rows a peer is computing.
    """

    def __init__(
        self,
        runs: Union[SweepSpec, Sequence[RunSpec]],
        *,
        workers: int = 1,
        jsonl_path: Optional[Union[str, Path]] = None,
        resume: bool = True,
        backend: Optional[Union[str, ExecutionBackend]] = None,
        store: Optional[Union[str, Path, "object"]] = None,
        store_claim_ttl_s: float = 3600.0,
        store_poll_s: float = 0.05,
        sweep_label: Optional[str] = None,
        replicate_batch: bool = False,
    ) -> None:
        if isinstance(runs, SweepSpec):
            runs = runs.expand()
        self.runs: List[RunSpec] = list(runs)
        check_unique_keys(self.runs)
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if isinstance(backend, str) and backend not in backend_names():
            known = ", ".join(backend_names())
            raise ValueError(f"unknown backend {backend!r}; known: {known}")
        if store_claim_ttl_s <= 0:
            raise ValueError("store_claim_ttl_s must be positive")
        if store_poll_s <= 0:
            raise ValueError("store_poll_s must be positive")
        self.workers = workers
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self.resume = resume
        self.backend = backend
        self.store = store
        self.store_claim_ttl_s = store_claim_ttl_s
        self.store_poll_s = store_poll_s
        self.sweep_label = sweep_label
        self.replicate_batch = replicate_batch

    def resolve_backend(self) -> ExecutionBackend:
        """The backend instance this runner will execute through."""
        if isinstance(self.backend, ExecutionBackend):
            return self.backend
        return make_backend(backend_name(self.backend, self.workers), workers=self.workers)

    def _resolve_store(self) -> Tuple[Optional["object"], bool]:
        """(store handle, whether this runner opened — and must close — it)."""
        if self.store is None:
            return None, False
        from ..store import ResultsStore  # runtime import keeps layering loose

        if isinstance(self.store, ResultsStore):
            return self.store, False
        return ResultsStore(self.store), True

    def run(
        self,
        *,
        progress: Optional[Callable[[int, int], None]] = None,
        stream_progress: Optional[Callable[[SweepProgress], None]] = None,
        on_row: Optional[RowCallback] = None,
    ) -> SweepResult:
        """Execute every non-completed run and return all rows in order.

        Each row is appended to the JSONL file, folded into the
        streaming aggregator and ingested into the store (when one is
        configured) the moment it arrives, **before** the callbacks fire
        — so a sweep interrupted at any point (even by a raising
        callback) resumes from everything that completed.

        ``progress`` (optional) is called as ``progress(done, total)``
        after every completed run; ``stream_progress`` receives a
        :class:`SweepProgress` with the cost-model ETA and a live
        aggregate snapshot; ``on_row`` sees **every** row entering the
        result — executed, JSONL-resumed, store hit or peer-computed —
        with its expansion order index (what a live table needs).
        """
        store, owns_store = self._resolve_store()
        try:
            return self._run(store, progress, stream_progress, on_row)
        finally:
            if owns_store and store is not None:
                store.close()

    def _run(
        self,
        store: Optional["object"],
        progress: Optional[Callable[[int, int], None]],
        stream_progress: Optional[Callable[[SweepProgress], None]],
        on_row: Optional[RowCallback],
    ) -> SweepResult:
        label = self.sweep_label
        if label is None and self.jsonl_path is not None:
            label = self.jsonl_path.name

        completed: Dict[str, Dict[str, object]] = {}
        if self.jsonl_path is not None and self.resume:
            completed = load_completed_rows(self.jsonl_path)
        order = {spec.run_key: index for index, spec in enumerate(self.runs)}

        # Legacy ingest: rows resumed from the per-sweep file enter the
        # global store so every other runner sees them as hits.
        if store is not None and completed:
            store.put_many(
                completed.values(), sweep_label=label, source="jsonl-import"
            )

        todo = [spec for spec in self.runs if spec.run_key not in completed]

        # Global dedup: previously computed keys short-circuit into the
        # row stream without touching any backend.
        store_hits: Dict[str, Dict[str, object]] = {}
        if store is not None and todo:
            store_hits = store.get_many([spec.run_key for spec in todo])
            todo = [spec for spec in todo if spec.run_key not in store_hits]

        # Claim what we will execute; keys a live peer already claimed
        # are awaited instead (and stolen if the peer dies).
        mine: List[RunSpec] = todo
        waiting: List[RunSpec] = []
        if store is not None and todo:
            mine, waiting = [], []
            for spec in todo:
                if store.claim(spec.run_key, ttl_s=self.store_claim_ttl_s):
                    mine.append(spec)
                else:
                    waiting.append(spec)

        handle = None
        if self.jsonl_path is not None:
            self.jsonl_path.parent.mkdir(parents=True, exist_ok=True)
            if not self.resume:
                self.jsonl_path.unlink(missing_ok=True)
                _repair_sidecar_path(self.jsonl_path).unlink(missing_ok=True)
                completed = {}
            handle = self.jsonl_path.open("a", encoding="utf-8")

        aggregator = StreamingAggregator()
        for spec in self.runs:
            key = spec.run_key
            row = completed.get(key)
            if row is not None:
                aggregator.add_row(row, order=order[key])
                if on_row is not None:
                    on_row(key, row, order[key], "resumed")
                continue
            hit = store_hits.get(key)
            if hit is not None:
                aggregator.add_row(hit, order=order[key])
                # Keep the per-sweep file self-contained: hits land in it
                # exactly as recomputed rows would.
                if handle is not None:
                    handle.write(json.dumps(hit) + "\n")
                if on_row is not None:
                    on_row(key, hit, order[key], "store")
        if handle is not None and store_hits:
            handle.flush()
        completed.update(store_hits)

        backend = self.resolve_backend()
        costs = {spec.run_key: spec.cost_hint() for spec in mine + waiting}
        cost_total = sum(costs.values())
        state = {"done": 0, "cost_done": 0.0}
        fresh: Dict[str, Dict[str, object]] = {}
        peer_rows: Dict[str, Dict[str, object]] = {}
        total = len(mine) + len(waiting)
        started = time.perf_counter()

        def tick(run_key: str) -> None:
            state["done"] += 1
            state["cost_done"] += costs[run_key]
            if progress is not None:
                progress(state["done"], total)
            if stream_progress is not None:
                elapsed = time.perf_counter() - started
                eta: Optional[float] = None
                if state["cost_done"] > 0 and state["done"] < total:
                    eta = (
                        elapsed
                        * (cost_total - state["cost_done"])
                        / state["cost_done"]
                    )
                elif state["done"] >= total:
                    eta = 0.0
                stream_progress(
                    SweepProgress(
                        done=state["done"],
                        total=total,
                        run_key=run_key,
                        cost_done=state["cost_done"],
                        cost_total=cost_total,
                        elapsed_s=elapsed,
                        eta_s=eta,
                        aggregate=aggregator.snapshot(),
                    )
                )

        def consume_executed(run_key: str, row: Dict[str, object]) -> None:
            fresh[run_key] = row
            if handle is not None:
                handle.write(json.dumps(row) + "\n")
                handle.flush()
            if store is not None:
                store.put(row, sweep_label=label, source="executed")
            aggregator.add_row(row, order=order[run_key])
            if on_row is not None:
                on_row(run_key, row, order[run_key], "executed")
            tick(run_key)

        # Replicate batching happens *after* resume + store dedup + claims,
        # so a bundle only ever contains runs this runner will actually
        # execute — cached members were already served as store hits, and
        # the planner simply sees a shorter seed axis (the partial-bundle
        # case).  Bit-identity of rows makes the whole thing invisible to
        # the JSONL file, the store and the aggregator.
        mine_items: Sequence = mine
        if self.replicate_batch and mine and backend.supports_bundles:
            from .replicate import plan_replicate_bundles

            mine_items = plan_replicate_bundles(mine)

        try:
            if mine:
                for run_key, row in backend.execute(mine_items):
                    consume_executed(run_key, row)
            if waiting:
                self._await_peers(
                    store,
                    backend,
                    waiting,
                    peer_rows,
                    consume_executed,
                    handle,
                    aggregator,
                    order,
                    on_row,
                    tick,
                )
        finally:
            # Never leave claims behind for keys this runner did not
            # finish — a raising callback or failed worker would otherwise
            # stall every peer until the TTL expires.
            if store is not None:
                for spec in mine:
                    if spec.run_key not in fresh:
                        store.release(spec.run_key)
            if handle is not None:
                handle.close()

        completed.update(peer_rows)
        rows = [
            fresh[spec.run_key] if spec.run_key in fresh else completed[spec.run_key]
            for spec in self.runs
        ]
        stats = backend.stats()
        if stats.worker_losses:
            warnings.warn(
                f"{stats.worker_losses} {stats.backend} worker(s) lost "
                f"mid-sweep; {stats.requeued_chunks} leased chunk(s) were "
                "requeued and re-executed, so every row is present"
            )
        served = len(store_hits) + len(peer_rows)
        return SweepResult(
            rows=rows,
            executed=len(fresh),
            resumed=len(rows) - len(fresh) - served,
            store_hits=served,
            aggregator=aggregator,
            stats=stats,
        )

    def _await_peers(
        self,
        store: "object",
        backend: ExecutionBackend,
        waiting: Sequence[RunSpec],
        peer_rows: Dict[str, Dict[str, object]],
        consume_executed: Callable[[str, Dict[str, object]], None],
        handle,
        aggregator: StreamingAggregator,
        order: Dict[str, int],
        on_row: Optional[RowCallback],
        tick: Callable[[str], None],
    ) -> None:
        """Wait for peer-claimed keys; steal and execute them if the peer dies.

        Every polling pass re-checks each outstanding key: a stored row
        is consumed as a peer result; a claim whose owner died (or whose
        TTL lapsed) is re-claimed and queued for local execution.  The
        loop cannot deadlock — either the peer makes progress, or its
        claims become stealable.
        """
        pending: Dict[str, RunSpec] = {spec.run_key: spec for spec in waiting}
        stolen: List[RunSpec] = []
        while pending:
            progressed = False
            for key in list(pending):
                row = store.get(key)
                if row is not None:
                    del pending[key]
                    peer_rows[key] = row
                    if handle is not None:
                        handle.write(json.dumps(row) + "\n")
                        handle.flush()
                    aggregator.add_row(row, order=order[key])
                    if on_row is not None:
                        on_row(key, row, order[key], "peer")
                    tick(key)
                    progressed = True
                elif store.claim(key, ttl_s=self.store_claim_ttl_s):
                    stolen.append(pending.pop(key))
                    progressed = True
            if pending and not progressed:
                time.sleep(self.store_poll_s)
        if stolen:
            try:
                for run_key, row in backend.execute(stolen):
                    consume_executed(run_key, row)
            finally:
                for spec in stolen:
                    if store.get(spec.run_key) is None:
                        store.release(spec.run_key)


def run_sweep(
    spec: Union[SweepSpec, Sequence[RunSpec]],
    *,
    workers: int = 1,
    jsonl_path: Optional[Union[str, Path]] = None,
    resume: bool = True,
    backend: Optional[Union[str, ExecutionBackend]] = None,
    store: Optional[Union[str, Path, "object"]] = None,
    store_claim_ttl_s: float = 3600.0,
    store_poll_s: float = 0.05,
    sweep_label: Optional[str] = None,
    replicate_batch: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    stream_progress: Optional[Callable[[SweepProgress], None]] = None,
    on_row: Optional[RowCallback] = None,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    runner = SweepRunner(
        spec,
        workers=workers,
        jsonl_path=jsonl_path,
        resume=resume,
        backend=backend,
        store=store,
        store_claim_ttl_s=store_claim_ttl_s,
        store_poll_s=store_poll_s,
        sweep_label=sweep_label,
        replicate_batch=replicate_batch,
    )
    return runner.run(
        progress=progress, stream_progress=stream_progress, on_row=on_row
    )
