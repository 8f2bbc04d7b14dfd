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

Each row times its two arms (array and object; fast path and
per-activation kernel) in alternating pairs, the order flipping pair by
pair as ``bench_grid_threshold.py`` does, and records each arm's median
and interquartile range, the speedup of the medians and the pairs the
faster design won; a mega row with one arm records its median and IQR
over as many runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "benchmarks", _ROOT / "tests", _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np
from bench_layers import _spread
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
#: Alternating pairs per grid row, and per mega row (whose per-activation
#: arm takes ~100 s at n = 1000).
FULL_PAIRS = 5
MEGA_PAIRS = 3
SMOKE_PAIRS = 1
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


def _alternating(first, second, pairs: int):
    """``pairs`` timings of two zero-argument timers, even pairs timing ``first`` first."""
    a, b = [], []
    for pair in range(pairs):
        order = ((first, a), (second, b)) if pair % 2 == 0 else ((second, b), (first, a))
        for timer, seconds in order:
            seconds.append(timer())
    return a, b


def _arms(fast: str, slow: str, fast_seconds, slow_seconds) -> dict:
    """Both arms' median and IQR, the speedup of the medians and the pairs ``fast`` won."""
    fast_s, slow_s = _spread(fast_seconds), _spread(slow_seconds)
    return {
        "pairs": len(fast_seconds),
        f"{fast}_s": fast_s,
        f"{slow}_s": slow_s,
        "speedup": round(slow_s["median"] / fast_s["median"], 3),
        f"{fast}_wins": sum(f < s for f, s in zip(fast_seconds, slow_seconds)),
    }


def run_grid(sizes, max_rounds: int, pairs: int, *, verbose: bool = True) -> dict:
    results = []
    for k in K_VALUES:
        for n in sizes:
            configuration = random_connected_configuration3(n, seed=SEED)
            positions = list(configuration.positions)
            array_seconds, object_seconds = _alternating(
                lambda: _run_once(positions, k, "array", max_rounds),
                lambda: _run_once(positions, k, "object", max_rounds),
                pairs,
            )
            row = {
                "algorithm": f"kknps3(k={k})",
                "workload": "random3",
                "n": n,
                "rounds": max_rounds,
                "seed": SEED,
                **_arms("array", "object", array_seconds, object_seconds),
            }
            results.append(row)
            if verbose:
                print(
                    f"kknps3(k={k}) n={n:<4} "
                    f"array {row['array_s']['median']:8.3f}s (IQR {row['array_s']['iqr']:.3f})  "
                    f"object {row['object_s']['median']:8.3f}s (IQR {row['object_s']['iqr']:.3f})  "
                    f"speedup {row['speedup']:6.2f}x  array won {row['array_wins']}/{pairs}"
                )
    headline = [r for r in results if r["algorithm"] == "kknps3(k=1)" and r["n"] == 200]
    return {
        "bench": "bench_engine3d",
        "description": (
            "3D round engine wall time: array mode (SoA positions, batched "
            "Look + vectorized destination rule) vs the retained object "
            "reference loop, bit-identical work on both sides, timed in "
            "alternating pairs."
        ),
        "sizes": list(sizes),
        "rounds": max_rounds,
        "pairs": pairs,
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


def run_mega(sides, *, smoke: bool, pairs: int, verbose: bool = True) -> dict:
    """The 3D mega-swarm axis through the continuous-time kernel.

    Lattice sizes up to :data:`MEGA_REFERENCE_MAX` also run the
    per-activation kernel path (``round_batching=False`` — the pinned
    bit-identical reference), in alternating pairs with the fast path,
    and report the fast-path speedup over it; larger lattices record the
    fast path's wall clock alone, the median and IQR of ``pairs`` runs.
    """
    rows = []
    for side in sides:
        n = side ** 3
        activations = _mega_activations(n, smoke)
        positions = list(lattice_configuration3(side, spacing=0.55).positions)

        def fast():
            return _mega_once(positions, activations, True)

        row = {
            "algorithm": "kknps3(k=1)",
            "scheduler": "ssync",
            "workload": f"lattice3(side={side})",
            "n": n,
            "activations": activations,
            "seed": SEED,
        }
        if n <= MEGA_REFERENCE_MAX:
            fast_seconds, reference_seconds = _alternating(
                fast, lambda: _mega_once(positions, activations, False), pairs
            )
            row.update(_arms("fast", "per_activation", fast_seconds, reference_seconds))
            suffix = (
                f"per-activation {row['per_activation_s']['median']:8.3f}s   "
                f"speedup {row['speedup']:6.2f}x  fast won {row['fast_wins']}/{pairs}"
            )
        else:
            row.update(pairs=pairs, fast_s=_spread([fast() for _ in range(pairs)]))
            suffix = "(fast path only)"
        rows.append(row)
        if verbose:
            print(
                f"kknps3(k=1) x ssync n={n:<7} fast {row['fast_s']['median']:8.3f}s "
                f"(IQR {row['fast_s']['iqr']:.3f})   {suffix}"
            )
    speedup_n1000 = next((r["speedup"] for r in rows if r["n"] == 1_000), None)
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
    payload = run_grid(sizes, max_rounds, SMOKE_PAIRS if args.smoke else FULL_PAIRS)
    payload["mega"] = run_mega(
        SMOKE_MEGA_SIDES if args.smoke else MEGA_SIDES,
        smoke=args.smoke,
        pairs=SMOKE_PAIRS if args.smoke else MEGA_PAIRS,
    )
    payload["smoke"] = bool(args.smoke)

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    # The JSON contract the CI smoke step relies on.
    parsed = json.loads(args.output.read_text())
    assert parsed["results"], "bench produced no results"
    for row in parsed["results"]:
        assert row["array_s"]["median"] > 0 and row["object_s"]["median"] > 0
        assert 0 <= row["array_wins"] <= row["pairs"]
    assert parsed["mega"]["results"], "bench produced no mega rows"
    for row in parsed["mega"]["results"]:
        assert row["fast_s"]["median"] > 0
    if not args.smoke:
        headline = parsed["headline_speedup_n200"]
        print(f"headline (kknps3 k=1, n=200): {headline}x")
        mega = parsed["mega"]["round_batching_speedup_n1000"]
        print(f"round batching (kknps3 x ssync, n=1000): {mega}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
