#!/usr/bin/env python3
"""Bench sweep behind the grid auto-thresholds.

A round-structured run (ssync, and the 3D round engine) reads each
round's Looks from the run's carried ``VisiblePairs`` (refreshed through
a ``ShardedGridIndex`` over the rows that changed) once it reaches its
threshold (``repro.engine.spatial_index``: ``GRID_MIN_ROBOTS`` in the
plane, ``GRID_MIN_ROBOTS_3D`` in 3-space, every value set from this
bench's measurements); below it a round gathers every row densely.
Per-activation Looks are always dense, so only round rows are timed:
``--rounds`` rounds of kknps × ssync on a constant-density truncated
grid in the plane (``rounds * n`` activations), of kknps3 on a lattice
in 3D.  Metrics sampling is suppressed (``record_every`` past the
horizon).

Every row times the same run with the pairs forced on and forced off,
``--pairs`` times each; the two arms alternate their order pair by pair
(even pairs time the grid first), and a row reports each arm's median
and IQR, the grid:dense speedup of the medians and how many pairs the
grid won.  The tables are recorded in ``docs/engine-performance.md``::

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
from repro.engine.spatial_index import GRID_MIN_ROBOTS, GRID_MIN_ROBOTS_3D  # noqa: E402
from repro.schedulers import SSyncScheduler  # noqa: E402
from repro.spatial3d import (  # noqa: E402
    KKNPS3Algorithm,
    Simulation3Config,
    lattice_configuration3,
    run_simulation3,
)
from repro.workloads import truncated_grid_configuration  # noqa: E402


def time_2d(configuration, *, spatial_index: bool, rounds: int) -> float:
    """``rounds`` rounds of kknps × ssync, unsampled."""
    activations = rounds * len(configuration)
    config = SimulationConfig(
        seed=7,
        max_activations=activations,
        convergence_epsilon=1e-12,
        stop_at_convergence=False,
        record_every=activations + 1,
        spatial_index=spatial_index,
    )
    started = time.perf_counter()
    run_simulation(configuration.positions, KKNPSAlgorithm(k=1), SSyncScheduler(), config)
    return time.perf_counter() - started


def time_3d(configuration, *, spatial_index: bool, rounds: int) -> float:
    """``rounds`` rounds of the 3D round engine."""
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
    return time.perf_counter() - started


def paired_row(timer, configuration, *, rounds: int, pairs: int) -> dict:
    """Alternating grid/dense pairs of one run; even pairs time the grid first."""
    grid, dense = [], []
    for pair in range(pairs):
        for spatial_index in ((True, False) if pair % 2 == 0 else (False, True)):
            seconds = timer(configuration, spatial_index=spatial_index, rounds=rounds)
            (grid if spatial_index else dense).append(seconds)
    grid_s, dense_s = _spread(grid), _spread(dense)
    return {
        "n": len(configuration),
        "pairs": pairs,
        "grid_s": grid_s,
        "dense_s": dense_s,
        "speedup": dense_s["median"] / grid_s["median"],
        "grid_wins": sum(g < d for g, d in zip(grid, dense)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", nargs="+", type=int, default=[128, 256, 512, 1024],
                        help="planar swarm sizes")
    parser.add_argument("--sides", nargs="+", type=int, default=[5, 6, 8, 10, 12, 14],
                        help="3D lattice sides (n = side^3: 125 ... 2744)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="horizon per measurement (planar: rounds * n activations)")
    parser.add_argument("--pairs", type=int, default=5,
                        help="alternating grid/dense pairs per row")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, one pair: checks the bench runs and emits valid JSON")
    parser.add_argument("--output", type=str, default=None, help="JSON output path")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n, args.sides, args.rounds, args.pairs = [128, 512], [4, 5], 2, 1

    results = {
        "host": host(),
        "smoke": bool(args.smoke),
        "grid_min_robots": GRID_MIN_ROBOTS,
        "grid_min_robots_3d": GRID_MIN_ROBOTS_3D,
        "rounds": args.rounds,
        "pairs": args.pairs,
        "round_shard_planar": [],
        "round_shard_3d": [],
    }
    print(f"GRID_MIN_ROBOTS = {GRID_MIN_ROBOTS} (2D rounds), "
          f"GRID_MIN_ROBOTS_3D = {GRID_MIN_ROBOTS_3D} (3D rounds)\n")
    print(f"round rows (carried VisiblePairs), median of {args.pairs} alternating pairs")
    print(f"{'engine':<9} {'n':>5} {'dense s':>9} {'iqr':>7} {'grid s':>9} {'iqr':>7} "
          f"{'grid/dense':>11} {'grid wins':>10}")
    rows = [
        ("planar", "round_shard_planar", time_2d,
         truncated_grid_configuration(n, spacing=0.7, visibility_range=1.0))
        for n in args.n
    ] + [
        ("spatial3d", "round_shard_3d", time_3d,
         lattice_configuration3(side, spacing=0.6, visibility_range=1.0))
        for side in args.sides
    ]
    for engine, key, timer, configuration in rows:
        row = paired_row(timer, configuration, rounds=args.rounds, pairs=args.pairs)
        results[key].append(row)
        dense, grid = row["dense_s"], row["grid_s"]
        print(f"{engine:<9} {row['n']:>5} {dense['median']:>9.3f} {dense['iqr']:>7.3f} "
              f"{grid['median']:>9.3f} {grid['iqr']:>7.3f} {row['speedup']:>10.2f}x "
              f"{row['grid_wins']:>5}/{row['pairs']}")

    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwritten to {args.output}")
        # The JSON contract the CI smoke step relies on.
        parsed = json.loads(Path(args.output).read_text())
        assert parsed["round_shard_planar"] and parsed["round_shard_3d"]
        for row in parsed["round_shard_planar"] + parsed["round_shard_3d"]:
            assert row["grid_s"]["median"] > 0 and row["dense_s"]["median"] > 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
