"""Bench — end-to-end ``Simulator.run`` wall time, new engine vs the pre-PR seed.

The array-native engine rebuilt the whole per-activation path: vectorized
kinematics (one numpy interpolation for all in-flight moves), a batched
snapshot pipeline (visibility mask, lexsort-certified coincidence
collapse, batch frame/perception transforms), grid-accelerated neighbour
candidates for large swarms, and an array-native metrics observation.

This bench measures the end-to-end effect: it runs identical simulations
through the new engine and through a faithful replica of the **pre-PR
seed engine** — the object engine oracle of
``tests/reference/object_engine.py`` (per-Point Looks and snapshots, the
quadratic coincidence collapse) combined with a frozen copy of the
seed's ``MetricsCollector.observe`` internals (per-observe hull with a
numpy-scalar chain walk, the ``(n, n, 2)`` pairwise temporary, per-call
edge-list rebuilds, the object-path Welzl SEC).  Both sides simulate the
same seeds; results are written to ``BENCH_engine.json`` as the repo's
machine-readable perf trajectory.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full grid
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke    # CI smoke

The full grid covers n in {25, 50, 100, 200, 400} for kknps/ando under
ssync/k-async.  A separate **mega-swarm** section extends the size axis
to n in {10^3, 10^4, 10^5} on the bounded-density truncated-grid
workload: at 10^3 the batched round fast path is timed against the
retained per-activation kernel path (same engine, ``round_batching``
off), and at 10^4/10^5 — where the per-activation path would take
minutes — the fast path's wall clock is recorded alone.  ``--smoke``
shrinks the grid and the activation budget so the script (and its JSON
contract) is exercised on every CI push.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "tests", _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np
from reference.object_engine import ObjectSimulator

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.engine import MetricsCollector, SimulationConfig, Simulator
from repro.engine.metrics import MetricsSample
from repro.geometry.point import Point, points_to_array
from repro.geometry.disk import Disk
from repro.geometry.segment import perpendicular_bisector_intersection
from repro.geometry.tolerances import EPS
from repro.schedulers import KAsyncScheduler, SSyncScheduler
from repro.workloads import random_connected_configuration, truncated_grid_configuration

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

FULL_SIZES = (25, 50, 100, 200, 400)
SMOKE_SIZES = (12, 25)
FULL_ACTIVATIONS = 300
SMOKE_ACTIVATIONS = 40
SEED = 3

#: Mega-swarm size axis: kknps x ssync on the bounded-density truncated
#: grid, timed through the batched round fast path.
MEGA_SIZES = (1_000, 10_000, 100_000)
SMOKE_MEGA_SIZES = (400,)
#: Largest mega size that also times the per-activation reference path
#: (``round_batching=False``); beyond it the reference would take minutes
#: per row, so the fast path's wall clock is recorded alone.
MEGA_REFERENCE_MAX = 1_000
#: A fresh measurement of the n=400 seed-engine headline must stay above
#: this fraction of the recorded value (generous CI-noise margin); the
#: floor itself is stored in the JSON so the gate reads one number.
PERF_FLOOR_FRACTION = 0.25


def _mega_activations(n: int, smoke: bool) -> int:
    """Activation budget for a mega row, scaled so the bench stays bounded.

    Roughly five ssync rounds at 10^3/10^4 and one round's worth at 10^5;
    smoke mode runs two rounds' worth at its single small size.
    """
    if smoke:
        return 2 * n
    return 5 * n if n <= 10_000 else n


# --------------------------------------------------------------------------
# Faithful replicas of the seed metrics internals (frozen at the PR-1 state).
# --------------------------------------------------------------------------

def _legacy_pairwise(arr: np.ndarray) -> np.ndarray:
    diff = arr[:, None, :] - arr[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _legacy_hull_vertices(arr: np.ndarray) -> List[Point]:
    """The seed ``convex_hull_array``: np.unique, then a numpy-scalar chain walk."""
    arr = np.asarray(arr, dtype=float).reshape(-1, 2)
    unique = np.unique(arr, axis=0) if len(arr) else arr
    m = len(unique)
    if m <= 2:
        return [Point(float(x), float(y)) for x, y in unique]
    xs, ys = unique[:, 0], unique[:, 1]

    def build(order) -> List[int]:
        chain: List[int] = []
        for i in order:
            while len(chain) >= 2:
                j, k = chain[-1], chain[-2]
                ax, ay = xs[j] - xs[k], ys[j] - ys[k]
                bx, by = xs[i] - xs[k], ys[i] - ys[k]
                cross = ax * by - ay * bx
                norms = math.hypot(ax, ay) * math.hypot(bx, by)
                if cross <= EPS * max(norms, EPS):
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    lower = build(range(m))
    upper = build(range(m - 1, -1, -1))
    hull = lower[:-1] + upper[:-1]
    if not hull:
        hull = [0, m - 1]
    return [Point(float(xs[i]), float(ys[i])) for i in hull]


def _legacy_hull_perimeter(vertices: List[Point]) -> float:
    if len(vertices) < 2:
        return 0.0
    total = 0.0
    for i, v in enumerate(vertices):
        total += v.distance_to(vertices[(i + 1) % len(vertices)])
    return total


def _circle_from_two(a: Point, b: Point) -> Disk:
    center = a.midpoint(b)
    return Disk(center, a.distance_to(b) / 2.0)


def _circle_from_three(a: Point, b: Point, c: Point) -> Optional[Disk]:
    center = perpendicular_bisector_intersection(a, b, c)
    if center is None:
        return None
    return Disk(center, center.distance_to(a))


def _is_in(disk: Optional[Disk], p: Point) -> bool:
    return disk is not None and disk.contains(p, eps=1e-7 * max(1.0, disk.radius))


def _trivial(boundary: Sequence[Point]) -> Optional[Disk]:
    if not boundary:
        return None
    if len(boundary) == 1:
        return Disk(boundary[0], 0.0)
    if len(boundary) == 2:
        return _circle_from_two(boundary[0], boundary[1])
    # Three boundary points: try all pairs first (one may dominate), then the
    # circumcircle.  The pair acceptance uses a tight relative tolerance so a
    # point that is genuinely (if barely) outside falls through to the
    # circumcircle, which contains all three exactly.
    for i in range(3):
        for j in range(i + 1, 3):
            d = _circle_from_two(boundary[i], boundary[j])
            if all(d.contains(q, eps=1e-12 * max(1.0, d.radius)) for q in boundary):
                return d
    return _circle_from_three(boundary[0], boundary[1], boundary[2])


def broken_edges_from_matrix(initial_edges, distances: np.ndarray, visibility_range: float):
    """The initial edges longer than ``V + EPS`` in a distance matrix (the seed's check)."""
    edges = list(initial_edges)
    if not edges:
        return set()
    index = np.asarray(edges, dtype=int)
    over = distances[index[:, 0], index[:, 1]] > visibility_range + EPS
    return {edges[i] for i in np.flatnonzero(over)}


def _legacy_sec(points: List[Point]) -> Disk:
    """The seed's object-path Welzl (Disk/Point objects, per-call shuffle)."""
    pts = list(points)
    if len(pts) > 3:
        rng = np.random.default_rng(0)
        order = rng.permutation(len(pts))
        pts = [pts[i] for i in order]
    disk: Optional[Disk] = None
    for i, p in enumerate(pts):
        if _is_in(disk, p):
            continue
        disk = Disk(p, 0.0)
        for j in range(i):
            q = pts[j]
            if _is_in(disk, q):
                continue
            disk = _circle_from_two(p, q)
            for k in range(j):
                r = pts[k]
                if _is_in(disk, r):
                    continue
                candidate = _trivial([p, q, r])
                if candidate is None:
                    far_pair = max(
                        ((a, b) for a in (p, q, r) for b in (p, q, r)),
                        key=lambda ab: ab[0].distance_to(ab[1]),
                    )
                    candidate = _circle_from_two(*far_pair)
                disk = candidate
    assert disk is not None
    return disk


class LegacyMetricsCollector(MetricsCollector):
    """``MetricsCollector`` with the seed's per-observe implementation.

    The seed measured everything at every observe, so every sample is
    full whatever ``full`` asks for.
    """

    def observe(self, time, positions, activations_processed, *, full=False):
        arr = points_to_array(
            positions if not isinstance(positions, np.ndarray) else positions
        )
        n = len(arr)
        hull_vertices = _legacy_hull_vertices(arr)
        if n >= 2:
            dist = _legacy_pairwise(arr)
            diameter = float(dist.max())
            min_pairwise = float(dist[~np.eye(n, dtype=bool)].min())
            broken = broken_edges_from_matrix(
                self.initial_edges, dist, self.visibility_range
            )
        else:
            diameter = 0.0
            min_pairwise = 0.0
            broken = set()
        if broken:
            self.cohesion_ever_violated = True
        sample = MetricsSample(
            time=time,
            hull_diameter=diameter,
            broken_edge_count=len(broken),
            activations_processed=activations_processed,
            hull_perimeter=_legacy_hull_perimeter(hull_vertices),
            hull_radius=_legacy_sec(hull_vertices).radius if n else 0.0,
            min_pairwise_distance=min_pairwise,
        )
        self.samples.append(sample)
        return sample


class SeedEngineSimulator(ObjectSimulator):
    """The pre-PR engine: the object engine oracle + seed metrics internals."""

    def _make_metrics(self) -> MetricsCollector:
        return LegacyMetricsCollector(visibility_range=self.config.visibility_range)


# --------------------------------------------------------------------------
# The grid.
# --------------------------------------------------------------------------

def _algorithms():
    return (
        ("kknps", lambda k: KKNPSAlgorithm(k=k)),
        ("ando", lambda k: AndoAlgorithm()),
    )


def _schedulers():
    return (
        ("ssync", lambda: SSyncScheduler(), 1),
        ("kasync", lambda: KAsyncScheduler(k=2), 2),
    )


def _config(
    max_activations: int,
    k: int,
    round_batching: Optional[bool] = None,
) -> SimulationConfig:
    return SimulationConfig(
        seed=SEED,
        max_activations=max_activations,
        stop_at_convergence=False,
        use_random_frames=False,
        k_bound=k,
        round_batching=round_batching,
    )


def _run_once(simulator_cls, positions, algorithm, scheduler, config) -> float:
    started = time.perf_counter()
    simulator_cls(positions, algorithm, scheduler, config).run()
    return time.perf_counter() - started


class _PhaseTimedSimulator(Simulator):
    """A Simulator that accumulates wall time per round-fast-path phase.

    Wraps the three phase primitives of the batched round path — the
    per-round refresh of the visible pairs, the round's decides (robot by
    robot or batched) and the metrics observe — in ``perf_counter``
    brackets.  The wrappers cost a few microseconds per call, so the
    phase split is
    measured in a *separate* run from the headline wall clock.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.phase_seconds = {"grid_build": 0.0, "decide": 0.0, "metrics": 0.0}

    def _round_pairs(self, committed):
        started = time.perf_counter()
        pairs = super()._round_pairs(committed)
        self.phase_seconds["grid_build"] += time.perf_counter() - started
        return pairs

    def _round_decide_rows(self, look_time, committed, pairs, executed):
        started = time.perf_counter()
        decisions = super()._round_decide_rows(look_time, committed, pairs, executed)
        self.phase_seconds["decide"] += time.perf_counter() - started
        return decisions

    def _round_decide_batch(self, look_time, committed, pairs, executed):
        started = time.perf_counter()
        decisions = super()._round_decide_batch(look_time, committed, pairs, executed)
        self.phase_seconds["decide"] += time.perf_counter() - started
        return decisions

    def _make_metrics(self):
        metrics = super()._make_metrics()
        inner_observe = metrics.observe
        phase_seconds = self.phase_seconds

        def observe(time_, positions, processed, *, full=False):
            started = time.perf_counter()
            sample = inner_observe(time_, positions, processed, full=full)
            phase_seconds["metrics"] += time.perf_counter() - started
            return sample

        metrics.observe = observe
        return metrics


def _run_phased(positions, algorithm, scheduler, config) -> dict:
    """One instrumented fast-path run; per-phase seconds plus the rest."""
    simulator = _PhaseTimedSimulator(positions, algorithm, scheduler, config)
    started = time.perf_counter()
    simulator.run()
    total = time.perf_counter() - started
    phases = {k: round(v, 6) for k, v in simulator.phase_seconds.items()}
    phases["other"] = round(max(0.0, total - sum(simulator.phase_seconds.values())), 6)
    return phases


def run_grid(sizes, max_activations: int, *, verbose: bool = True) -> dict:
    results = []
    for algo_name, algo_factory in _algorithms():
        for sched_name, sched_factory, k in _schedulers():
            for n in sizes:
                configuration = random_connected_configuration(n, seed=SEED)
                positions = list(configuration.positions)
                new_seconds = _run_once(
                    Simulator, positions, algo_factory(k), sched_factory(),
                    _config(max_activations, k),
                )
                seed_seconds = _run_once(
                    SeedEngineSimulator, positions, algo_factory(k), sched_factory(),
                    _config(max_activations, k),
                )
                speedup = seed_seconds / new_seconds if new_seconds > 0 else math.inf
                results.append(
                    {
                        "algorithm": algo_name,
                        "scheduler": sched_name,
                        "n": n,
                        "activations": max_activations,
                        "seed": SEED,
                        "seconds_new": round(new_seconds, 6),
                        "seconds_seed_engine": round(seed_seconds, 6),
                        "speedup": round(speedup, 3),
                    }
                )
                if verbose:
                    print(
                        f"{algo_name:>6} x {sched_name:<7} n={n:<4} "
                        f"new {new_seconds:8.3f}s   seed {seed_seconds:8.3f}s   "
                        f"speedup {speedup:6.2f}x"
                    )
    def headline(n: int):
        rows = [
            r for r in results
            if r["algorithm"] == "kknps" and r["scheduler"] == "ssync" and r["n"] == n
        ]
        return rows[0]["speedup"] if rows else None

    n400 = headline(400)
    return {
        "bench": "bench_engine",
        "description": (
            "End-to-end Simulator.run wall time: array-native engine vs a "
            "faithful replica of the pre-PR seed engine (object snapshot "
            "path + seed metrics internals), exact perception, no frames."
        ),
        "sizes": list(sizes),
        "activations": max_activations,
        "results": results,
        "headline_speedup_kknps_ssync_n200": headline(200),
        "headline_speedup_kknps_ssync_n400": n400,
        "perf_floor_kknps_ssync_n400": (
            round(PERF_FLOOR_FRACTION * n400, 3) if n400 else None
        ),
    }


def run_mega(sizes, *, smoke: bool, verbose: bool = True) -> dict:
    """The mega-swarm axis: kknps x ssync through the round fast path.

    Sizes up to :data:`MEGA_REFERENCE_MAX` also run the per-activation
    kernel path (``round_batching=False`` — same engine, same floats, the
    pinned bit-identical reference) and report the fast-path speedup over
    it; larger sizes record the fast path's end-to-end wall clock, which
    is the ROADMAP's 10^4–10^5 headline.
    """
    rows = []
    for n in sizes:
        activations = _mega_activations(n, smoke)
        positions = list(truncated_grid_configuration(n, spacing=0.7).positions)
        fast_seconds = _run_once(
            Simulator, positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            _config(activations, 1),
        )
        phases = _run_phased(
            positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            _config(activations, 1),
        )
        row = {
            "algorithm": "kknps",
            "scheduler": "ssync",
            "workload": "truncated_grid",
            "n": n,
            "activations": activations,
            "seed": SEED,
            "seconds_fast": round(fast_seconds, 6),
            "phase_seconds": phases,
        }
        if n <= MEGA_REFERENCE_MAX:
            reference_seconds = _run_once(
                Simulator, positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
                _config(activations, 1, round_batching=False),
            )
            row["seconds_per_activation"] = round(reference_seconds, 6)
            row["speedup_round_batching"] = round(
                reference_seconds / fast_seconds if fast_seconds > 0 else math.inf, 3
            )
        rows.append(row)
        if verbose:
            reference = row.get("seconds_per_activation")
            suffix = (
                f"per-activation {reference:8.3f}s   "
                f"speedup {row['speedup_round_batching']:6.2f}x"
                if reference is not None
                else "(fast path only)"
            )
            print(
                f" kknps x ssync   n={n:<7} fast {fast_seconds:8.3f}s   {suffix}"
            )
            print(
                f"                 phases: grid {phases['grid_build']:.3f}s   "
                f"decide {phases['decide']:.3f}s   metrics {phases['metrics']:.3f}s   "
                f"other {phases['other']:.3f}s"
            )
    speedup_n1000 = next(
        (r["speedup_round_batching"] for r in rows if r["n"] == 1_000), None
    )
    # Decide-phase throughput floor for tools/perf_gate.py, anchored on the
    # n=10^4 row (the ROADMAP's mid mega size; the largest row in smoke).
    anchor = next((r for r in rows if r["n"] == 10_000), rows[-1] if rows else None)
    decide_floor = None
    if anchor and anchor["phase_seconds"]["decide"] > 0:
        throughput = anchor["activations"] / anchor["phase_seconds"]["decide"]
        decide_floor = round(PERF_FLOOR_FRACTION * throughput, 3)
    return {
        "workload": "truncated_grid(spacing=0.7)",
        "reference_max_n": MEGA_REFERENCE_MAX,
        "results": rows,
        "round_batching_speedup_n1000": speedup_n1000,
        "decide_floor_n": anchor["n"] if anchor else None,
        "perf_floor_decide_activations_per_second": decide_floor,
    }


#: The replicate-batching acceptance cell: a 16-seed kknps x ssync bundle
#: at n=10^3 (the sweep grid's seed axis at mid scale).
REPLICATE_N = 1_000
REPLICATE_SEEDS = 16
REPLICATE_ACTIVATIONS = 400
#: Measurement repetitions per side; both sides report their best rep
#: (single-vCPU CI hosts show multi-second sporadic noise, so a mean
#: would gate on the host, not the code).
REPLICATE_REPS = 5


def run_replicates(*, smoke: bool, verbose: bool = True) -> dict:
    """Replicate batching: one 16-seed bundle vs 16 sequential fast-path runs.

    Both sides execute the identical run specs (same workloads, same RNG
    streams); every batched result is asserted bit-identical to its
    serial counterpart before any timing is reported.  Wall clocks are
    best-of-:data:`REPLICATE_REPS` per side.
    """
    from repro.engine.replicate import run_replicated_simulations
    from repro.sweeps.runner import planar_setup
    from repro.sweeps.spec import RunSpec

    n = 50 if smoke else REPLICATE_N
    seeds = 4 if smoke else REPLICATE_SEEDS
    activations = 120 if smoke else REPLICATE_ACTIVATIONS
    reps = 1 if smoke else REPLICATE_REPS

    def spec(seed: int) -> RunSpec:
        return RunSpec(
            algorithm="kknps", scheduler="ssync", workload="grid", n_robots=n,
            error_model="exact", seed=seed, scheduler_k=2, epsilon=0.05,
            max_activations=activations,
        )

    def factory_for(seed: int):
        def factory():
            configuration, algorithm, scheduler, config = planar_setup(spec(seed))
            return configuration.positions, algorithm, scheduler, config

        return factory

    serial_times, batched_times = [], []
    for _ in range(reps):
        # The mega section leaves a fragmented heap behind; start each rep
        # from a collected state so neither side inherits it.
        import gc

        gc.collect()
        started = time.perf_counter()
        serial = [Simulator(*factory_for(s)()).run() for s in range(seeds)]
        mid = time.perf_counter()
        batched = run_replicated_simulations([factory_for(s) for s in range(seeds)])
        serial_times.append(mid - started)
        batched_times.append(time.perf_counter() - mid)
        for a, b in zip(serial, batched):
            assert a.activations_processed == b.activations_processed
            assert tuple(a.final_configuration.positions) == tuple(
                b.final_configuration.positions
            )
            assert a.metrics.samples == b.metrics.samples
            assert a.records == b.records
            assert a.activation_end_times == b.activation_end_times
            assert a.converged == b.converged
            assert a.convergence_time == b.convergence_time
            assert a.final_time == b.final_time
    serial_best = min(serial_times)
    batched_best = min(batched_times)
    speedup = serial_best / batched_best if batched_best > 0 else math.inf
    runs_per_second = seeds / batched_best if batched_best > 0 else math.inf
    if verbose:
        print(
            f" kknps x ssync   n={n} x {seeds} seeds   "
            f"serial best {serial_best:7.3f}s   batched best {batched_best:7.3f}s   "
            f"speedup {speedup:6.2f}x   ({runs_per_second:.1f} runs/s, bit-identical)"
        )
    return {
        "algorithm": "kknps",
        "scheduler": "ssync",
        "workload": "grid",
        "n": n,
        "seeds": seeds,
        "activations": activations,
        "reps": reps,
        "seconds_serial_best": round(serial_best, 6),
        "seconds_batched_best": round(batched_best, 6),
        "speedup_replicate_batching": round(speedup, 3),
        "runs_per_second_batched": round(runs_per_second, 3),
        "bit_identical": True,
        "perf_floor_replicate_runs_per_second": round(
            PERF_FLOOR_FRACTION * runs_per_second, 3
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid + activation budget: verifies the bench runs and emits valid JSON",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_PATH,
        help=f"where to write the JSON results (default: {BENCH_PATH})",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    max_activations = SMOKE_ACTIVATIONS if args.smoke else FULL_ACTIVATIONS
    payload = run_grid(sizes, max_activations)
    payload["mega"] = run_mega(
        SMOKE_MEGA_SIZES if args.smoke else MEGA_SIZES, smoke=args.smoke
    )
    payload["replicates"] = run_replicates(smoke=args.smoke)
    payload["smoke"] = bool(args.smoke)

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    # The JSON contract the CI smoke step relies on.
    parsed = json.loads(args.output.read_text())
    assert parsed["results"], "bench produced no results"
    for row in parsed["results"]:
        assert row["seconds_new"] > 0 and row["seconds_seed_engine"] > 0
    assert parsed["mega"]["results"], "bench produced no mega rows"
    for row in parsed["mega"]["results"]:
        assert row["seconds_fast"] > 0
        assert row["phase_seconds"]["decide"] > 0
    assert parsed["replicates"]["bit_identical"]
    assert parsed["replicates"]["runs_per_second_batched"] > 0
    if not args.smoke:
        headline = parsed["headline_speedup_kknps_ssync_n200"]
        print(f"headline (kknps x ssync, n=200): {headline}x")
        mega = parsed["mega"]["round_batching_speedup_n1000"]
        print(f"round batching (kknps x ssync, n=1000): {mega}x")
        replicates = parsed["replicates"]["speedup_replicate_batching"]
        print(f"replicate batching (kknps x ssync, n=1000 x 16 seeds): {replicates}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
