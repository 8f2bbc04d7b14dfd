#!/usr/bin/env python3
"""Bench sweep behind the grid threshold.

A round-structured run (ssync, and the 3D round engine) reads each
round's Looks from the run's carried ``VisiblePairs`` (refreshed through
a ``ShardedGridIndex`` over the rows that changed) from
``repro.engine.spatial_index.GRID_MIN_ROBOTS`` robots on, in the plane
and in 3-space alike (a value set from this bench's measurements);
below it a round gathers every row densely.  Per-activation Looks are
always dense, so only round rows are timed: ``--rounds`` rounds of
kknps × ssync on a constant-density truncated grid in the plane
(``rounds * n`` activations), of kknps3 on a lattice and on the
``random3`` workload (the rows of ``benchmarks/bench_engine3d.py``) in
3D.  Metrics sampling is suppressed (``record_every`` past the horizon).

Every row times the same run with the pairs forced on (the threshold
patched to 0) and forced off (patched past n), ``--pairs`` times each;
the two arms alternate their order pair by pair (even pairs time the
grid first), and a row reports each arm's median and IQR, the
grid:dense speedup of the medians, how many pairs the grid won and
which arm won the row (``won_by``): the one faster in at least 9 in 10
pairs whose median is also ahead by more than the other arm's IQR, else
neither.  ``pairs_win_from`` is the smallest planar size from which the
grid won its row and every larger one, the value ``GRID_MIN_ROBOTS``
takes as long as no 3D row at or above it is won by the dense gather
(``dense_wins_3d`` lists those that are).  The tables are recorded in
``docs/engine-performance.md``::

    python benchmarks/bench_grid_threshold.py --output BENCH_grid_threshold.json
    python benchmarks/bench_grid_threshold.py --smoke --output /tmp/grid_smoke.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_layers import _spread, host  # noqa: E402
from repro.algorithms import KKNPSAlgorithm  # noqa: E402
from repro.engine import SimulationConfig, run_simulation  # noqa: E402
from repro.engine import spatial_index  # noqa: E402
from repro.schedulers import SSyncScheduler  # noqa: E402
from repro.spatial3d import (  # noqa: E402
    KKNPS3Algorithm,
    Simulation3Config,
    lattice_configuration3,
    random_connected_configuration3,
    run_simulation3,
)
from repro.workloads import truncated_grid_configuration  # noqa: E402


def time_2d(configuration, *, rounds: int) -> float:
    """``rounds`` rounds of kknps × ssync, unsampled."""
    activations = rounds * len(configuration)
    config = SimulationConfig(
        seed=7,
        max_activations=activations,
        convergence_epsilon=1e-12,
        stop_at_convergence=False,
        record_every=activations + 1,
    )
    started = time.perf_counter()
    run_simulation(configuration.positions, KKNPSAlgorithm(k=1), SSyncScheduler(), config)
    return time.perf_counter() - started


def time_3d(configuration, *, rounds: int) -> float:
    """``rounds`` rounds of the 3D round engine."""
    config = Simulation3Config(
        seed=7,
        max_rounds=rounds,
        convergence_epsilon=1e-12,
        activation_probability=0.6,
        xi=0.5,
    )
    started = time.perf_counter()
    run_simulation3(configuration.positions, KKNPS3Algorithm(k=1), config)
    return time.perf_counter() - started


def paired_row(timer, workload: str, configuration, *, rounds: int, pairs: int) -> dict:
    """Alternating grid/dense pairs of one run; even pairs time the grid first.

    The grid arm patches the threshold to 0, the dense arm past any n.
    """
    grid, dense = [], []
    for pair in range(pairs):
        for on in ((True, False) if pair % 2 == 0 else (False, True)):
            with mock.patch.object(spatial_index, "GRID_MIN_ROBOTS", 0 if on else math.inf):
                seconds = timer(configuration, rounds=rounds)
            (grid if on else dense).append(seconds)
    grid_s, dense_s = _spread(grid), _spread(dense)
    row = {
        "workload": workload,
        "n": len(configuration),
        "pairs": pairs,
        "grid_s": grid_s,
        "dense_s": dense_s,
        "speedup": dense_s["median"] / grid_s["median"],
        "grid_wins": sum(g < d for g, d in zip(grid, dense)),
    }
    row["won_by"] = won_by(row)
    return row


def won_by(row) -> "str | None":
    """``"grid"`` or ``"dense"`` if that arm won the row, else None.

    An arm wins when it was faster in at least 9 in 10 pairs and its
    median is ahead by more than the other arm's IQR.
    """
    grid, dense = row["grid_s"], row["dense_s"]
    ahead = dense["median"] - grid["median"]
    if 10 * row["grid_wins"] >= 9 * row["pairs"] and ahead > dense["iqr"]:
        return "grid"
    if 10 * (row["pairs"] - row["grid_wins"]) >= 9 * row["pairs"] and -ahead > grid["iqr"]:
        return "dense"
    return None


def pairs_win_from(rows) -> "int | None":
    """The smallest size from which the grid won its row and every larger one."""
    found = None
    for row in sorted(rows, key=lambda row: row["n"], reverse=True):
        if row["won_by"] != "grid":
            break
        found = row["n"]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", nargs="+", type=int, default=[96, 128, 192, 256, 384, 512],
                        help="planar swarm sizes")
    parser.add_argument("--sides", nargs="+", type=int, default=[5, 6, 7, 8, 10],
                        help="3D lattice sides (n = side^3: 125 ... 1000)")
    parser.add_argument("--random3", nargs="+", type=int, default=[200, 400, 1000],
                        help="3D random3 swarm sizes")
    parser.add_argument("--rounds", type=int, default=5,
                        help="horizon per measurement (planar: rounds * n activations)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating grid/dense pairs per row")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, one pair: checks the bench runs and emits valid JSON")
    parser.add_argument("--output", type=str, default=None, help="JSON output path")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n, args.sides, args.random3, args.rounds, args.pairs = [128, 512], [4, 5], [100], 2, 1

    results = {
        "host": host(),
        "smoke": bool(args.smoke),
        "grid_min_robots": spatial_index.GRID_MIN_ROBOTS,
        "rounds": args.rounds,
        "pairs": args.pairs,
        "round_shard_planar": [],
        "round_shard_3d": [],
    }
    print(f"GRID_MIN_ROBOTS = {spatial_index.GRID_MIN_ROBOTS} (planar and 3D rounds)\n")
    print(f"round rows (carried VisiblePairs), median of {args.pairs} alternating pairs")
    print(f"{'workload':<15} {'n':>5} {'dense s':>9} {'iqr':>7} {'grid s':>9} {'iqr':>7} "
          f"{'grid/dense':>11} {'grid wins':>10} {'won by':>7}")
    rows = [
        ("round_shard_planar", time_2d, "truncated_grid",
         truncated_grid_configuration(n, spacing=0.7, visibility_range=1.0))
        for n in args.n
    ] + [
        ("round_shard_3d", time_3d, "lattice3",
         lattice_configuration3(side, spacing=0.6, visibility_range=1.0))
        for side in args.sides
    ] + [
        ("round_shard_3d", time_3d, "random3", random_connected_configuration3(n, seed=3))
        for n in args.random3
    ]
    for key, timer, workload, configuration in rows:
        row = paired_row(timer, workload, configuration, rounds=args.rounds, pairs=args.pairs)
        results[key].append(row)
        dense, grid = row["dense_s"], row["grid_s"]
        print(f"{workload:<15} {row['n']:>5} {dense['median']:>9.3f} {dense['iqr']:>7.3f} "
              f"{grid['median']:>9.3f} {grid['iqr']:>7.3f} {row['speedup']:>10.2f}x "
              f"{row['grid_wins']:>5}/{row['pairs']} {row['won_by'] or '-':>7}")
    results["pairs_win_from"] = pairs_win_from(results["round_shard_planar"])
    results["dense_wins_3d"] = [
        row["n"] for row in results["round_shard_3d"] if row["won_by"] == "dense"
    ]
    print(f"\nplanar pairs win from n = {results['pairs_win_from']}; "
          f"3D rows the dense gather wins: {results['dense_wins_3d'] or 'none'}")

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
