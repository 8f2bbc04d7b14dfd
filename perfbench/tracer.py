"""In-memory span tracer for the benchmark's traced run.

The traced run patches each layer's public functions *where their callers
look them up* (a module global such as ``repro.engine.simulator.build_snapshot``,
or a class attribute such as ``MetricsCollector.observe``), records one span
per call — name, start, end and the span that was open on the same thread
when the call began — and keeps every span in memory until the run ends.
A layer's self time is the sum of its spans' durations minus the durations
of their direct child spans.

Spans are recorded only from this benchmark's files; the program itself is
not changed.  Every probe names the workloads on which it must fire, so a
renamed or bypassed function shows up as a failed check instead of as a
silently missing layer.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROUND_MEGA = "round_mega"
KASYNC_SWEEP = "kasync_sweep"
SEED_SWEEP_CACHED = "seed_sweep_cached"

#: ``(args, kwargs, result) -> {counter: increment}`` for a probe's counts.
CountFn = Callable[[tuple, dict, object], Dict[str, int]]


@dataclass(frozen=True)
class Probe:
    """One patched function: where it is looked up and what it records."""

    #: ``"module:Attr"`` or ``"module:Class.attr"`` — the lookup site.
    target: str
    #: Span name; None records counts only (no span, no time).
    span: Optional[str]
    #: Workloads on which this probe must fire at least once.
    workloads: Tuple[str, ...]
    #: Counter name bumped once per call (defaults to the span name).
    counter: Optional[str] = None
    #: Extra per-call counts derived from the arguments and result.
    count: Optional[CountFn] = None


def _rows(args, kwargs, result):
    # KKNPSAlgorithm.compute_array_rounds(self, px, py, starts, ends)
    starts = args[3] if len(args) > 3 else kwargs["starts"]
    return {"algorithms.decide_rounds.rows": len(starts)}


def _lane_rows(args, kwargs, result):
    # kknps_destinations_all(px, py, starts, ends, lane_of, consts, out)
    starts = args[2] if len(args) > 2 else kwargs["starts"]
    return {"algorithms.decide_rounds.rows": len(starts)}


def _lanes(args, kwargs, result):
    factories = args[0] if args else kwargs["factories"]
    return {"replicate.lanes": len(factories)}


def _bundle_members(args, kwargs, result):
    return {"sweeps.bundled_runs": len(result)}


def _lookups(args, kwargs, result):
    # ResultsStore.get_many(self, run_keys)
    keys = args[1] if len(args) > 1 else kwargs["run_keys"]
    return {"store.get_many.keys": len(keys), "store.get_many.hits": len(result)}


_ALL = (ROUND_MEGA, KASYNC_SWEEP, SEED_SWEEP_CACHED)
_ROUND = (ROUND_MEGA, SEED_SWEEP_CACHED)

#: Every probe of the traced run, grouped by layer (module).
PROBES: Tuple[Probe, ...] = (
    # engine.kernel
    Probe("repro.engine.simulator:Simulator.run", "kernel.run", (ROUND_MEGA, KASYNC_SWEEP)),
    Probe("repro.engine.kernel:ContinuousKernel._process_round", None, (ROUND_MEGA,),
          counter="kernel.rounds"),
    # schedulers
    Probe("repro.schedulers.synchronous:SSyncScheduler.next_batch",
          "schedulers.next_batch", _ROUND),
    Probe("repro.schedulers.kasync:KAsyncScheduler.next_batch",
          "schedulers.next_batch", (KASYNC_SWEEP,)),
    # engine.spatial_index (the constructor also serves from_replicates)
    Probe("repro.engine.spatial_index:ShardedGridIndex.__init__",
          "spatial_index.build", _ROUND),
    Probe("repro.engine.spatial_index:ShardedGridIndex.neighbour_pairs",
          "spatial_index.neighbour_pairs", _ROUND),
    Probe("repro.engine.spatial_index:ShardedGridIndex.warm_candidates",
          "spatial_index.warm_candidates", (ROUND_MEGA,)),
    # algorithms
    Probe("repro.algorithms.kknps:KKNPSAlgorithm.compute_array_rounds",
          "algorithms.decide_rounds", (ROUND_MEGA,), count=_rows),
    Probe("repro.engine.replicate:kknps_destinations_all",
          "algorithms.decide_rounds", (SEED_SWEEP_CACHED,), count=_lane_rows),
    Probe("repro.algorithms.kknps:KKNPSAlgorithm.compute",
          "algorithms.compute", (KASYNC_SWEEP,)),
    # model
    Probe("repro.engine.simulator:build_snapshot", "snapshot.build", (KASYNC_SWEEP,)),
    Probe("repro.model.errors:PerceptionModel.perceive_array", "errors.perceive",
          (KASYNC_SWEEP,)),
    Probe("repro.model.errors:MotionModel.realize", "errors.realize", (KASYNC_SWEEP,)),
    # engine.metrics + geometry
    Probe("repro.engine.metrics:MetricsCollector.observe", "metrics.observe", _ALL),
    Probe("repro.engine.metrics:MetricsCollector.bind_initial", "metrics.bind_initial",
          _ALL),
    Probe("repro.geometry.hull:ConvexHull.of_array", "geometry.hull", _ALL),
    Probe("repro.engine.metrics:smallest_enclosing_circle", "geometry.sec", _ALL),
    Probe("repro.engine.replicate:smallest_enclosing_circle", "geometry.sec",
          (SEED_SWEEP_CACHED,)),
    # engine.replicate
    Probe("repro.engine.replicate:run_replicated_simulations", "replicate.run",
          (SEED_SWEEP_CACHED,), counter="replicate.calls", count=_lanes),
    # sweeps
    Probe("repro.sweeps.runner:execute_run", "sweeps.execute_run", (KASYNC_SWEEP,)),
    Probe("repro.sweeps.replicate:execute_bundle", "sweeps.execute_bundle",
          (SEED_SWEEP_CACHED,), count=_bundle_members),
    Probe("repro.sweeps.runner:SweepRunner.run", "sweeps.runner", (SEED_SWEEP_CACHED,)),
    # store
    Probe("repro.store.results_store:ResultsStore.put", "store.put", (SEED_SWEEP_CACHED,)),
    Probe("repro.store.results_store:ResultsStore.claim", "store.claim",
          (SEED_SWEEP_CACHED,)),
    Probe("repro.store.results_store:ResultsStore.get_many", "store.get_many",
          (SEED_SWEEP_CACHED,), count=_lookups),
)

#: Per-layer metrics, each with the end-to-end metric and workload it
#: should move: ``name -> (unit, better, moves)``.
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "kernel.self_s": ("s", "lower", "activations_per_s on round_mega"),
    "kernel.rounds": ("count", "lower", "activations_per_s on round_mega"),
    "kernel.batched_round_ratio": ("ratio", "higher", "activations_per_s on round_mega"),
    "schedulers.next_batch.calls": ("count", "lower", "run_s_p50 on kasync_sweep"),
    "schedulers.next_batch.s": (
        "s", "lower", "run_s_p50 on kasync_sweep; activations_per_s on round_mega"),
    "spatial_index.build.calls": ("count", "lower", "activations_per_s on round_mega"),
    "spatial_index.build.s": (
        "s", "lower", "activations_per_s on round_mega; runs_per_s on seed_sweep_cached"),
    "spatial_index.neighbour_pairs.s": (
        "s", "lower", "activations_per_s on round_mega; runs_per_s on seed_sweep_cached"),
    "spatial_index.warm_candidates.s": ("s", "lower", "activations_per_s on round_mega"),
    "algorithms.decide_rounds.calls": (
        "count", "lower", "activations_per_s on round_mega and seed_sweep_cached"),
    "algorithms.decide_rounds.s": (
        "s", "lower", "activations_per_s on round_mega and seed_sweep_cached"),
    "algorithms.decide_rounds.rows": (
        "count", "higher", "activations_per_s on round_mega and seed_sweep_cached"),
    "algorithms.compute.calls": ("count", "lower", "run_s_p50 on kasync_sweep"),
    "algorithms.compute.s": ("s", "lower", "run_s_p50 on kasync_sweep"),
    "snapshot.build.calls": ("count", "lower", "run_s_p50 on kasync_sweep"),
    "snapshot.build.s": ("s", "lower", "run_s_p50 on kasync_sweep"),
    "errors.perceive.s": ("s", "lower", "run_s_p50 on kasync_sweep"),
    "errors.realize.s": ("s", "lower", "run_s_p50 on kasync_sweep"),
    "metrics.observe.calls": (
        "count", "lower", "run_s_p50 on kasync_sweep; activations_per_s on round_mega"),
    "metrics.observe.s": (
        "s", "lower", "run_s_p50 on kasync_sweep; activations_per_s on round_mega"),
    "metrics.bind_initial.s": ("s", "lower", "activations_per_s on round_mega"),
    "geometry.hull.s": ("s", "lower", "run_s_p50 on kasync_sweep"),
    "geometry.sec.s": ("s", "lower", "run_s_p50 on kasync_sweep"),
    "replicate.calls": ("count", "lower", "runs_per_s on seed_sweep_cached"),
    "replicate.lanes": ("count", "higher", "runs_per_s on seed_sweep_cached"),
    "replicate.s": ("s", "lower", "runs_per_s on seed_sweep_cached"),
    "sweeps.execute_run.calls": ("count", "lower", "runs_per_s on seed_sweep_cached"),
    "sweeps.execute_run.s": ("s", "lower", "run_s_p50 on kasync_sweep"),
    "sweeps.execute_bundle.calls": ("count", "lower", "runs_per_s on seed_sweep_cached"),
    "sweeps.execute_bundle.s": ("s", "lower", "runs_per_s on seed_sweep_cached"),
    "sweeps.bundled_ratio": ("ratio", "higher", "runs_per_s on seed_sweep_cached"),
    "sweeps.runner.self_s": (
        "s", "lower", "runs_per_s on seed_sweep_cached; service.resubmit_s_p50"),
    "store.put.calls": ("count", "lower", "runs_per_s on seed_sweep_cached"),
    "store.put.s": ("s", "lower", "runs_per_s on seed_sweep_cached"),
    "store.claim.calls": ("count", "lower", "runs_per_s on seed_sweep_cached"),
    "store.claim.s": ("s", "lower", "runs_per_s on seed_sweep_cached"),
    "store.get_many.calls": ("count", "lower", "service.resubmit_s_p50 on seed_sweep_cached"),
    "store.get_many.keys": ("count", "lower", "service.resubmit_s_p50 on seed_sweep_cached"),
    "store.get_many.s": ("s", "lower", "service.resubmit_s_p50 on seed_sweep_cached"),
    "store.hit_ratio": ("ratio", "higher", "service.cached_rows_per_s on seed_sweep_cached"),
    # The cached phase's own client-side metrics: its latency did not
    # repeat within a tenth between processes, so it is reported here
    # rather than as an end-to-end metric.
    "service.resubmit_s_p50": ("s", "lower", "(cached phase of seed_sweep_cached)"),
    "service.cached_rows_per_s": (
        "rows/s", "higher", "(cached phase of seed_sweep_cached)"),
    "service.queue_wait_s": ("s", "lower", "service.resubmit_s_p50 on seed_sweep_cached"),
    "service.exec_s": ("s", "lower", "service.resubmit_s_p50 on seed_sweep_cached"),
    "service.observe_lag_s": ("s", "lower", "service.resubmit_s_p50 on seed_sweep_cached"),
    "unattributed_share": ("ratio", "lower", "(tracer coverage; no end-to-end metric)"),
    "trace_overhead_ratio": ("ratio", "lower", "(tracer cost; no end-to-end metric)"),
}


def _resolve(target: str):
    """``(owner, attribute name)`` of a probe target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Patches the probes on entry, restores the originals on exit."""

    def __init__(self, probes: Sequence[Probe] = PROBES) -> None:
        self.probes = tuple(probes)
        #: ``(span_id, parent_id or None, name, start, end)`` per finished span.
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.counters: collections.Counter = collections.Counter()
        self.fired: collections.Counter = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        #: Guards the counters: probes fire on the JobManager executor too.
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._uninstall()

    def _install(self, probe: Probe) -> None:
        owner, name = _resolve(probe.target)
        if isinstance(owner, type):
            if name not in vars(owner):
                raise AttributeError(f"{probe.target}: not defined on {owner.__name__}")
            raw = vars(owner)[name]
        else:
            raw = getattr(owner, name)
        if isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(raw.__func__, probe))
        elif isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, probe))
        elif callable(raw):
            patched = self._wrap(raw, probe)
        else:
            raise TypeError(f"{probe.target} is not callable")
        setattr(owner, name, patched)
        self._restore.append((owner, name, raw))

    def _uninstall(self) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    def _wrap(self, fn, probe: Probe):
        tracer = self
        span_name = probe.span
        counter = probe.counter or probe.span
        count = probe.count
        target = probe.target
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.fired[target] += 1
                tracer.counters[counter] += 1
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                stack = getattr(tracer._local, "stack", None)
                if stack is None:
                    stack = tracer._local.stack = []
                span_id = next(tracer._ids)
                parent = stack[-1] if stack else None
                stack.append(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    tracer.spans.append((span_id, parent, span_name, start, end))
            if count is not None:
                counts = count(args, kwargs, result)
                with tracer._lock:
                    tracer.counters.update(counts)
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------------
    def missing_probes(self, workload: str) -> List[str]:
        """Probes meant to fire on ``workload`` that never did."""
        return [
            p.target for p in self.probes if workload in p.workloads and not self.fired[p.target]
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time: Dict[int, float] = collections.defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time.get(span_id, 0.0)
        return out

    def top_level_seconds(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def spans_under(self, name: str, ancestor: str, stop: str) -> int:
        """Spans called ``name`` whose nearest ``ancestor``/``stop`` span is ``ancestor``."""
        by_id = {span[0]: span for span in self.spans}
        hits = 0
        for _, parent, span_name, _, _ in self.spans:
            if span_name != name:
                continue
            while parent is not None:
                outer = by_id[parent]
                if outer[2] in (ancestor, stop):
                    hits += outer[2] == ancestor
                    break
                parent = outer[1]
        return hits

    def layer_metrics(self, service: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric except the two coverage ratios."""
        spans = self.summary()
        counters = self.counters

        def calls(name: str) -> float:
            return float(spans.get(name, {}).get("calls", 0))

        def self_s(name: str) -> float:
            return spans.get(name, {}).get("self_s", 0.0)

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        rounds = float(counters["kernel.rounds"])
        executed = calls("sweeps.execute_run") + counters["sweeps.bundled_runs"]
        metrics = {
            "kernel.self_s": self_s("kernel.run"),
            "kernel.rounds": rounds,
            "kernel.batched_round_ratio": ratio(
                self.spans_under("algorithms.decide_rounds", "kernel.run", "replicate.run"),
                rounds,
            ),
            "replicate.calls": float(counters["replicate.calls"]),
            "replicate.lanes": float(counters["replicate.lanes"]),
            "replicate.s": self_s("replicate.run"),
            "algorithms.decide_rounds.rows": float(counters["algorithms.decide_rounds.rows"]),
            "sweeps.bundled_ratio": ratio(counters["sweeps.bundled_runs"], executed),
            "sweeps.runner.self_s": self_s("sweeps.runner"),
            "store.get_many.keys": float(counters["store.get_many.keys"]),
            "store.hit_ratio": ratio(
                counters["store.get_many.hits"], counters["store.get_many.keys"]
            ),
        }
        for name in (
            "schedulers.next_batch", "spatial_index.build", "algorithms.decide_rounds",
            "algorithms.compute", "snapshot.build", "metrics.observe",
            "sweeps.execute_run", "sweeps.execute_bundle", "store.put", "store.claim",
            "store.get_many",
        ):
            metrics[f"{name}.calls"] = calls(name)
            metrics[f"{name}.s"] = self_s(name)
        for name in (
            "spatial_index.neighbour_pairs", "spatial_index.warm_candidates",
            "errors.perceive", "errors.realize", "metrics.bind_initial",
            "geometry.hull", "geometry.sec",
        ):
            metrics[f"{name}.s"] = self_s(name)
        metrics.update(service)
        return metrics
