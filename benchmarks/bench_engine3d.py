"""Bench — 3D round engine wall time, array mode vs the retained object path.

The array-native 3D engine (``repro.spatial3d.engine3``) replaced the
per-robot ``Vector3`` round loop with one contiguous ``(n, 3)`` position
array: batched distance filtering per Look, fused-column rotation of
whole neighbour batches, the vectorized destination rule
(``KKNPS3Algorithm.compute_array``), vectorized per-round diameter and
cohesion reductions, and (for large swarms) 3x3x3-block candidate
queries against the shared uniform hash grid.  The object path — the
pre-array reference loop — is kept as the oracle
``tests/reference/object_engine3.py`` and property-tested bit-identical,
which makes this benchmark an equal-work comparison: both sides simulate
the exact same rounds.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_engine3d.py            # full grid
    PYTHONPATH=src python benchmarks/bench_engine3d.py --smoke    # CI smoke

The full grid covers n in {25, 50, 100, 200, 400} on the random
connected 3D workload under the ssync3 discipline (60% activation
subsets, xi = 0.5, random frames).  The convergence threshold is set
unreachably low so every run executes the full round budget.  A separate
**mega-swarm** section extends the size axis to n near {10^3, 10^4,
10^5} (cubic lattices) through the continuous-time kernel
(``run_simulation3_async`` under SSync), where the batched round fast
path lives: at ~10^3 it is timed against the retained per-activation
kernel path (``round_batching`` off), and at the larger sizes its wall
clock is recorded alone.  Results are written to
``BENCH_engine3d.json``; ``--smoke`` shrinks the grid and budget so the
script (and its JSON contract) is exercised on every CI push.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "tests", _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np
from reference.object_engine3 import run_simulation3_object

from repro.schedulers import SSyncScheduler
from repro.spatial3d import (
    AsyncSimulation3Config,
    KKNPS3Algorithm,
    Simulation3Config,
    lattice_configuration3,
    random_connected_configuration3,
    run_simulation3,
    run_simulation3_async,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine3d.json"

FULL_SIZES = (25, 50, 100, 200, 400)
SMOKE_SIZES = (8, 16)
FULL_ROUNDS = 30
SMOKE_ROUNDS = 4
#: Timed repetitions per (mode, cell); the minimum is reported, which is
#: the standard way to suppress scheduler/load noise in wall-time benches.
FULL_REPEATS = 3
SMOKE_REPEATS = 1
SEED = 3
K_VALUES = (1, 2)

#: Mega-swarm axis: cubic-lattice sides, n = side^3 (1000, 10648, 97336),
#: run through the continuous-time kernel under SSync so the batched
#: round fast path carries the load.
MEGA_SIDES = (10, 22, 46)
SMOKE_MEGA_SIDES = (7,)
#: Largest mega n that also times the per-activation reference path
#: (``round_batching=False``); beyond it the reference would take minutes
#: per row, so the fast path's wall clock is recorded alone.
MEGA_REFERENCE_MAX = 1_000


def _mega_activations(n: int, smoke: bool) -> int:
    """Activation budget for a mega row (activations, not rounds)."""
    if smoke:
        return 2 * n
    return 5 * n if n <= 11_000 else n


#: The two sides of the grid: the array engine and the object oracle.
ENGINES = {"array": run_simulation3, "object": run_simulation3_object}


def _config(max_rounds: int) -> Simulation3Config:
    return Simulation3Config(
        max_rounds=max_rounds,
        # Unreachable threshold: both sides execute the full budget.
        convergence_epsilon=1e-12,
        activation_probability=0.6,
        xi=0.5,
        seed=SEED,
        rotate_frames=True,
    )


def _run_once(positions, k: int, engine: str, max_rounds: int) -> float:
    started = time.perf_counter()
    ENGINES[engine](positions, KKNPS3Algorithm(k=k), _config(max_rounds))
    return time.perf_counter() - started


def _best_of(repeats: int, positions, k: int, engine: str, max_rounds: int) -> float:
    return min(_run_once(positions, k, engine, max_rounds) for _ in range(repeats))


def run_grid(sizes, max_rounds: int, repeats: int, *, verbose: bool = True) -> dict:
    results = []
    for k in K_VALUES:
        for n in sizes:
            configuration = random_connected_configuration3(n, seed=SEED)
            positions = list(configuration.positions)
            array_seconds = _best_of(repeats, positions, k, "array", max_rounds)
            object_seconds = _best_of(repeats, positions, k, "object", max_rounds)
            speedup = object_seconds / array_seconds if array_seconds > 0 else math.inf
            results.append(
                {
                    "algorithm": f"kknps3(k={k})",
                    "workload": "random3",
                    "n": n,
                    "rounds": max_rounds,
                    "seed": SEED,
                    "seconds_array": round(array_seconds, 6),
                    "seconds_object": round(object_seconds, 6),
                    "speedup": round(speedup, 3),
                }
            )
            if verbose:
                print(
                    f"kknps3(k={k}) n={n:<4} "
                    f"array {array_seconds:8.3f}s   object {object_seconds:8.3f}s   "
                    f"speedup {speedup:6.2f}x"
                )
    headline = [r for r in results if r["algorithm"] == "kknps3(k=1)" and r["n"] == 200]
    return {
        "bench": "bench_engine3d",
        "description": (
            "3D round engine wall time: array mode (SoA positions, batched "
            "Look + vectorized destination rule) vs the retained object "
            "reference loop, bit-identical work on both sides."
        ),
        "sizes": list(sizes),
        "rounds": max_rounds,
        "repeats": repeats,
        "results": results,
        "headline_speedup_n200": headline[0]["speedup"] if headline else None,
    }


def _mega_config(max_activations: int, round_batching) -> AsyncSimulation3Config:
    return AsyncSimulation3Config(
        seed=SEED,
        max_activations=max_activations,
        stop_at_convergence=False,
        rotate_frames=True,
        round_batching=round_batching,
    )


def _mega_once(positions, max_activations: int, round_batching) -> float:
    started = time.perf_counter()
    run_simulation3_async(
        positions,
        KKNPS3Algorithm(k=1),
        SSyncScheduler(),
        _mega_config(max_activations, round_batching),
    )
    return time.perf_counter() - started


def run_mega(sides, *, smoke: bool, verbose: bool = True) -> dict:
    """The 3D mega-swarm axis through the continuous-time kernel.

    Lattice sizes up to :data:`MEGA_REFERENCE_MAX` also run the
    per-activation kernel path (``round_batching=False`` — the pinned
    bit-identical reference) and report the fast-path speedup over it;
    larger lattices record the fast path's end-to-end wall clock.
    """
    rows = []
    for side in sides:
        n = side ** 3
        activations = _mega_activations(n, smoke)
        positions = list(lattice_configuration3(side, spacing=0.55).positions)
        fast_seconds = _mega_once(positions, activations, True)
        row = {
            "algorithm": "kknps3(k=1)",
            "scheduler": "ssync",
            "workload": f"lattice3(side={side})",
            "n": n,
            "activations": activations,
            "seed": SEED,
            "seconds_fast": round(fast_seconds, 6),
        }
        if n <= MEGA_REFERENCE_MAX:
            reference_seconds = _mega_once(positions, activations, False)
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
            print(f"kknps3(k=1) x ssync n={n:<7} fast {fast_seconds:8.3f}s   {suffix}")
    speedup_n1000 = next(
        (r["speedup_round_batching"] for r in rows if r["n"] == 1_000), None
    )
    return {
        "workload": "lattice3(spacing=0.55)",
        "reference_max_n": MEGA_REFERENCE_MAX,
        "results": rows,
        "round_batching_speedup_n1000": speedup_n1000,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid + round budget: verifies the bench runs and emits valid JSON",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_PATH,
        help=f"where to write the JSON results (default: {BENCH_PATH})",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    max_rounds = SMOKE_ROUNDS if args.smoke else FULL_ROUNDS
    repeats = SMOKE_REPEATS if args.smoke else FULL_REPEATS
    payload = run_grid(sizes, max_rounds, repeats)
    payload["mega"] = run_mega(
        SMOKE_MEGA_SIDES if args.smoke else MEGA_SIDES, smoke=args.smoke
    )
    payload["smoke"] = bool(args.smoke)

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    # The JSON contract the CI smoke step relies on.
    parsed = json.loads(args.output.read_text())
    assert parsed["results"], "bench produced no results"
    for row in parsed["results"]:
        assert row["seconds_array"] > 0 and row["seconds_object"] > 0
    assert parsed["mega"]["results"], "bench produced no mega rows"
    for row in parsed["mega"]["results"]:
        assert row["seconds_fast"] > 0
    if not args.smoke:
        headline = parsed["headline_speedup_n200"]
        print(f"headline (kknps3 k=1, n=200): {headline}x")
        mega = parsed["mega"]["round_batching_speedup_n1000"]
        print(f"round batching (kknps3 x ssync, n=1000): {mega}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
