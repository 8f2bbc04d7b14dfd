#!/usr/bin/env python3
"""Bench sweep behind the grid auto-thresholds.

Each engine auto-enables a spatial grid once a run reaches its
threshold (``repro.engine.spatial_index``, every value set from this
bench's measurements), and the threshold switches on one of two
structures, depending on the scheduler:

* **round-shard rows** (``GRID_MIN_ROBOTS`` in the plane,
  ``GRID_MIN_ROBOTS_3D`` in 3-space).  Round-structured schedulers
  (ssync, and the 3D round engine) run whole rounds, whose Looks read
  the run's carried ``VisiblePairs`` (refreshed through a
  ``ShardedGridIndex`` over the rows that changed): ``--rounds`` rounds
  of kknps × ssync on a constant-density truncated grid in the plane
  (``rounds * n`` activations), of kknps3 on a lattice in 3D.  Metrics
  sampling is suppressed (``record_every`` past the horizon); each arm
  reports its best of ``--repeats``.
* **k-async rows** (``grid_auto_threshold(2, rounds=False)``: whether
  planar per-activation runs ever enable their grid on their own).
  Per-activation schedulers (k-async, k-NestA, async) keep an
  incrementally maintained ``UniformGridIndex``: kknps(k=2) ×
  k-async(2), the paper's setting, on the ``random`` workload and on
  the constant-density ``grid`` workload.  Each row is timed with one
  metrics sample per activation (``record_every=1``, what
  ``execute_run`` and the CLI use) and with sampling suppressed.  The
  two arms alternate their order pair by pair; a row reports each arm's
  median and IQR and how many pairs the grid won.

Every row times the same run with the grid forced on and forced off and
reports the grid:dense speedup.  The tables are recorded in
``docs/engine-performance.md``::

    python benchmarks/bench_grid_threshold.py --output BENCH_grid_threshold.json
    python benchmarks/bench_grid_threshold.py --smoke --output /tmp/grid_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_layers import _spread, host  # noqa: E402
from repro.algorithms import KKNPSAlgorithm  # noqa: E402
from repro.engine import SimulationConfig, run_simulation  # noqa: E402
from repro.engine.spatial_index import (  # noqa: E402
    GRID_MIN_ROBOTS,
    GRID_MIN_ROBOTS_3D,
    grid_auto_threshold,
)
from repro.schedulers import KAsyncScheduler, SSyncScheduler  # noqa: E402
from repro.spatial3d import (  # noqa: E402
    KKNPS3Algorithm,
    Simulation3Config,
    lattice_configuration3,
    run_simulation3,
)
from repro.sweeps.factories import make_workload  # noqa: E402
from repro.workloads import truncated_grid_configuration  # noqa: E402

#: k-async rows: ``(workload, n, activations)``.  The large ``random``
#: rows run fewer activations: their dense neighbourhoods make one
#: sampled activation cost ~14 ms at n=4,000 and ~0.14 s at n=10^4.
KASYNC_ROWS = (
    ("random", 512, 3000),
    ("random", 1000, 3000),
    ("random", 4000, 400),
    ("random", 10_000, 100),
    ("grid", 512, 3000),
    ("grid", 1000, 3000),
    ("grid", 4000, 2000),
    ("grid", 10_000, 1000),
)
SMOKE_KASYNC_ROWS = (("random", 512, 200), ("grid", 1000, 200))
KASYNC_PAIRS = 5


def time_2d(n: int, *, spatial_index: bool, rounds: int, repeats: int) -> float:
    configuration = truncated_grid_configuration(n, spacing=0.7, visibility_range=1.0)
    activations = rounds * n
    best = float("inf")
    for _ in range(repeats):
        config = SimulationConfig(
            seed=7,
            max_activations=activations,
            convergence_epsilon=1e-12,
            stop_at_convergence=False,
            record_every=activations + 1,
            spatial_index=spatial_index,
        )
        started = time.perf_counter()
        run_simulation(configuration.positions, KKNPSAlgorithm(k=1),
                       SSyncScheduler(), config)
        best = min(best, time.perf_counter() - started)
    return best


def time_3d(side: int, *, spatial_index: bool, rounds: int, repeats: int) -> float:
    configuration = lattice_configuration3(side, spacing=0.6, visibility_range=1.0)
    best = float("inf")
    for _ in range(repeats):
        config = Simulation3Config(
            seed=7,
            max_rounds=rounds,
            convergence_epsilon=1e-12,
            activation_probability=0.6,
            xi=0.5,
            spatial_index=spatial_index,
        )
        started = time.perf_counter()
        run_simulation3(configuration.positions, KKNPS3Algorithm(k=1), config)
        best = min(best, time.perf_counter() - started)
    return best


def time_kasync(configuration, *, spatial_index: bool, activations: int, sampled: bool) -> float:
    """One kknps(k=2) × k-async(2) run, sampled every activation or never."""
    config = SimulationConfig(
        seed=7,
        max_activations=activations,
        convergence_epsilon=1e-12,
        stop_at_convergence=False,
        record_every=1 if sampled else activations + 1,
        spatial_index=spatial_index,
    )
    started = time.perf_counter()
    run_simulation(configuration.positions, KKNPSAlgorithm(k=2),
                   KAsyncScheduler(k=2), config)
    return time.perf_counter() - started


def kasync_row(workload: str, n: int, activations: int, *, sampled: bool, pairs: int) -> dict:
    """Alternating grid/dense pairs of one k-async run; even pairs time the grid first."""
    configuration = make_workload(workload, n, 0)
    grid, dense = [], []
    for pair in range(pairs):
        for spatial_index in ((True, False) if pair % 2 == 0 else (False, True)):
            seconds = time_kasync(configuration, spatial_index=spatial_index,
                                  activations=activations, sampled=sampled)
            (grid if spatial_index else dense).append(seconds)
    grid_s, dense_s = _spread(grid), _spread(dense)
    return {
        "workload": workload,
        "n": n,
        "activations": activations,
        "record_every": 1 if sampled else None,
        "pairs": pairs,
        "grid_s": grid_s,
        "dense_s": dense_s,
        "speedup": dense_s["median"] / grid_s["median"],
        "grid_wins": sum(g < d for g, d in zip(grid, dense)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", nargs="+", type=int, default=[128, 256, 512, 1024],
                        help="planar round-shard swarm sizes")
    parser.add_argument("--sides", nargs="+", type=int, default=[5, 6, 8, 10, 12, 14],
                        help="3D round-shard lattice sides (n = side^3: 125 ... 2744)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="round-shard horizon per measurement (planar: rounds * n activations)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats of the round-shard rows")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, one repeat: checks the bench runs and emits valid JSON")
    parser.add_argument("--output", type=str, default=None, help="JSON output path")
    args = parser.parse_args(argv)
    kasync_rows, pairs = KASYNC_ROWS, KASYNC_PAIRS
    if args.smoke:
        args.n, args.sides, args.rounds, args.repeats = [128, 512], [4, 5], 2, 1
        kasync_rows, pairs = SMOKE_KASYNC_ROWS, 1

    results = {
        "host": host(),
        "smoke": bool(args.smoke),
        "grid_min_robots": GRID_MIN_ROBOTS,
        "grid_min_robots_per_activation": grid_auto_threshold(2, rounds=False),
        "grid_min_robots_3d": GRID_MIN_ROBOTS_3D,
        "rounds": args.rounds,
        "repeats": args.repeats,
        "round_shard_planar": [],
        "round_shard_3d": [],
        "kasync": [],
    }
    print(f"GRID_MIN_ROBOTS = {GRID_MIN_ROBOTS} (2D rounds), "
          f"per-activation grid from {grid_auto_threshold(2, rounds=False)} "
          f"(2D; None: never), GRID_MIN_ROBOTS_3D = {GRID_MIN_ROBOTS_3D} (3D)\n")
    print("round-shard rows (carried VisiblePairs), best of repeats")
    print(f"{'engine':<9} {'n':>5} {'dense s':>9} {'grid s':>9} {'grid/dense':>11}")
    for n in args.n:
        dense = time_2d(n, spatial_index=False, rounds=args.rounds, repeats=args.repeats)
        grid = time_2d(n, spatial_index=True, rounds=args.rounds, repeats=args.repeats)
        results["round_shard_planar"].append(
            {"n": n, "dense_s": dense, "grid_s": grid, "speedup": dense / grid}
        )
        print(f"{'planar':<9} {n:>5} {dense:>9.3f} {grid:>9.3f} {dense / grid:>10.2f}x")
    for side in args.sides:
        n = side ** 3
        dense = time_3d(side, spatial_index=False, rounds=args.rounds,
                        repeats=args.repeats)
        grid = time_3d(side, spatial_index=True, rounds=args.rounds,
                       repeats=args.repeats)
        results["round_shard_3d"].append(
            {"n": n, "dense_s": dense, "grid_s": grid, "speedup": dense / grid}
        )
        print(f"{'spatial3d':<9} {n:>5} {dense:>9.3f} {grid:>9.3f} {dense / grid:>10.2f}x")

    print("\nk-async rows (UniformGridIndex), median of alternating pairs")
    print(f"{'workload':<8} {'n':>6} {'acts':>5} {'sampled':>7} {'dense s':>9} "
          f"{'grid s':>9} {'grid/dense':>11} {'grid wins':>10}")
    for sampled in (True, False):
        for workload, n, activations in kasync_rows:
            row = kasync_row(workload, n, activations, sampled=sampled, pairs=pairs)
            results["kasync"].append(row)
            print(f"{workload:<8} {n:>6} {activations:>5} {'yes' if sampled else 'no':>7} "
                  f"{row['dense_s']['median']:>9.3f} {row['grid_s']['median']:>9.3f} "
                  f"{row['speedup']:>10.2f}x {row['grid_wins']:>5}/{row['pairs']}")

    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwritten to {args.output}")
        # The JSON contract the CI smoke step relies on.
        parsed = json.loads(Path(args.output).read_text())
        assert parsed["round_shard_planar"] and parsed["round_shard_3d"]
        assert {row["record_every"] for row in parsed["kasync"]} == {1, None}
        for row in parsed["kasync"]:
            assert row["grid_s"]["median"] > 0 and row["dense_s"]["median"] > 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
