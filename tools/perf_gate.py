#!/usr/bin/env python3
"""CI perf-regression gate for the engine hot path.

Re-measures the kknps x ssync cell at n=400 — the array-native engine
(round fast path) against the seed-engine replica from
``benchmarks/bench_engine.py`` — under the same conditions the committed
``BENCH_engine.json`` was recorded with, and fails if the fresh speedup
drops below the stored floor (``perf_floor_kknps_ssync_n400``, one
quarter of the recorded headline: generous against CI-runner noise,
fatal against an accidental re-quadratization of the hot path).

When the recorded JSON carries a ``replicates`` section the gate also
re-measures the replicate-batched throughput — a 16-seed kknps x ssync
bundle at n=10^3 through ``run_replicated_simulations`` — and fails if
the fresh runs/sec drop below
``replicates.perf_floor_replicate_runs_per_second``.

When the ``mega`` section records a decide-phase floor
(``mega.perf_floor_decide_activations_per_second``) the gate re-times the
whole-round batched decide phase at the recorded anchor size and fails if
the fresh activations/sec drop below it.

Run it directly::

    PYTHONPATH=src python tools/perf_gate.py            # gate against BENCH_engine.json
    PYTHONPATH=src python tools/perf_gate.py --bench other.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_engine import (  # noqa: E402
    FULL_ACTIVATIONS,
    REPLICATE_ACTIVATIONS,
    REPLICATE_N,
    REPLICATE_SEEDS,
    SEED,
    SeedEngineSimulator,
    _config,
    _mega_activations,
    _run_once,
    _run_phased,
)
from repro.algorithms import KKNPSAlgorithm  # noqa: E402
from repro.engine import Simulator  # noqa: E402
from repro.engine.replicate import run_replicated_simulations  # noqa: E402
from repro.schedulers import SSyncScheduler  # noqa: E402
from repro.sweeps.runner import planar_setup  # noqa: E402
from repro.sweeps.spec import RunSpec  # noqa: E402
from repro.workloads import (  # noqa: E402
    random_connected_configuration,
    truncated_grid_configuration,
)

GATE_N = 400


def measure_speedup() -> float:
    """Fresh kknps x ssync speedup at n=400, best of two attempts.

    The best-of guards against one-off scheduler hiccups on shared CI
    runners; the measurement itself mirrors ``run_grid`` exactly.
    """
    positions = list(random_connected_configuration(GATE_N, seed=SEED).positions)
    best = 0.0
    for _ in range(2):
        new_seconds = _run_once(
            Simulator, positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            _config(FULL_ACTIVATIONS, 1),
        )
        seed_seconds = _run_once(
            SeedEngineSimulator, positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
            _config(FULL_ACTIVATIONS, 1),
        )
        if new_seconds > 0:
            best = max(best, seed_seconds / new_seconds)
    return best


def measure_replicate_throughput() -> float:
    """Fresh batched runs/sec on the recorded replicate cell, best of two.

    Mirrors ``bench_engine.run_replicates``'s batched side exactly — the
    same 16-seed kknps x ssync bundle at n=10^3 — but skips the serial
    side and the bit-identity assertion (a correctness concern the test
    suite owns); the gate only guards throughput.
    """

    def factory_for(seed: int):
        def factory():
            spec = RunSpec(
                algorithm="kknps", scheduler="ssync", workload="grid",
                n_robots=REPLICATE_N, error_model="exact", seed=seed,
                scheduler_k=2, epsilon=0.05,
                max_activations=REPLICATE_ACTIVATIONS,
            )
            configuration, algorithm, scheduler, config = planar_setup(spec)
            return configuration.positions, algorithm, scheduler, config

        return factory

    best = 0.0
    for _ in range(2):
        started = time.perf_counter()
        run_replicated_simulations(
            [factory_for(seed) for seed in range(REPLICATE_SEEDS)]
        )
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, REPLICATE_SEEDS / elapsed)
    return best


def measure_decide_throughput(n: int) -> float:
    """Fresh decide-phase activations/sec at the recorded mega anchor size.

    Mirrors ``bench_engine.run_mega``'s instrumented run exactly — same
    workload, same activation budget, same phase brackets — and reduces
    it to the decide phase's throughput.
    """
    activations = _mega_activations(n, False)
    positions = list(truncated_grid_configuration(n, spacing=0.7).positions)
    phases = _run_phased(
        positions, KKNPSAlgorithm(k=1), SSyncScheduler(),
        _config(activations, 1),
    )
    decide_seconds = phases["decide"]
    return activations / decide_seconds if decide_seconds > 0 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench",
        type=Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="recorded bench JSON holding the stored floor",
    )
    args = parser.parse_args(argv)

    recorded = json.loads(args.bench.read_text())
    floor = recorded.get("perf_floor_kknps_ssync_n400")
    if floor is None:
        print(f"{args.bench} has no perf_floor_kknps_ssync_n400; nothing to gate")
        return 1
    headline = recorded.get("headline_speedup_kknps_ssync_n400")

    measured = measure_speedup()
    print(
        f"kknps x ssync n={GATE_N}: measured {measured:.2f}x, "
        f"recorded {headline}x, floor {floor}x"
    )
    if measured < floor:
        print(
            f"PERF GATE FAILED: fresh speedup {measured:.2f}x is below the "
            f"stored floor {floor}x — the engine hot path regressed "
            "(or BENCH_engine.json needs regenerating after an intended change)."
        )
        return 1

    replicates = recorded.get("replicates") or {}
    replicate_floor = replicates.get("perf_floor_replicate_runs_per_second")
    if replicate_floor is not None:
        throughput = measure_replicate_throughput()
        print(
            f"replicate batching n={REPLICATE_N} x {REPLICATE_SEEDS} seeds: "
            f"measured {throughput:.1f} runs/s, "
            f"recorded {replicates.get('runs_per_second_batched')} runs/s, "
            f"floor {replicate_floor} runs/s"
        )
        if throughput < replicate_floor:
            print(
                f"PERF GATE FAILED: batched replicate throughput "
                f"{throughput:.1f} runs/s is below the stored floor "
                f"{replicate_floor} runs/s — the replicate-batched path "
                "regressed (or BENCH_engine.json needs regenerating after "
                "an intended change)."
            )
            return 1
    else:
        print("no replicate floor recorded; skipping the replicate gate")

    mega = recorded.get("mega") or {}
    decide_floor = mega.get("perf_floor_decide_activations_per_second")
    anchor_n = mega.get("decide_floor_n")
    if decide_floor is not None and anchor_n:
        throughput = measure_decide_throughput(int(anchor_n))
        print(
            f"batched decide n={anchor_n}: measured {throughput:.0f} "
            f"activations/s, floor {decide_floor} activations/s"
        )
        if throughput < decide_floor:
            print(
                f"PERF GATE FAILED: decide-phase throughput {throughput:.0f} "
                f"activations/s is below the stored floor {decide_floor} — "
                "the whole-round batched decide regressed (or "
                "BENCH_engine.json needs regenerating after an intended "
                "change)."
            )
            return 1
    else:
        print("no decide-phase floor recorded; skipping the decide gate")

    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
