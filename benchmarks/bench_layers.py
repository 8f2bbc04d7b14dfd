"""Bench — the mega ladder: planar kknps x ssync rounds at n = 10^3 … 10^6.

Each row is one swarm size of the ``grid`` (truncated grid) workload, run
the way ``perfbench``'s ``round_mega`` runs it: ``planar_setup`` builds the
configuration, algorithm, scheduler and config of a one-run
``SweepSpec``, a :class:`~repro.engine.simulator.Simulator` is
constructed (together: the row's *setup*), and ``Simulator.run``
executes ``n`` activations (the *run*).  Every size runs in a fresh
subprocess, so the ``ru_maxrss`` it reports is that row's own peak.

A row records the median and interquartile range of setup and run
seconds over its repeats, the activations executed, the peak RSS, and an
output digest (the final positions and the diameter history) that must
not move while the program's outputs stay bit-identical.  The host
fingerprint (cores, CPU model, python, numpy, scipy) sits beside the
rows.

The ``workload_setup`` layer generates every planar registry workload
(:data:`~repro.sweeps.factories.WORKLOAD_FACTORIES`) at n = 4000, each
in a fresh subprocess: the median ``make_workload`` seconds over its
repeats, the process's peak RSS and a digest of the generated rows and
visibility range.

The ``round_pairs`` layer times the round path's neighbour structure,
each row in a fresh subprocess: the refresh of the run's carried
visible pairs in µs (median and IQR) on the n=10^5 ``grid`` start of
the ladder after 0, 5, 1,000 and every row moved (the baseline checkout
times its own per-round neighbour structure at the same rows), and a
contracted swarm — n robots uniform in a disk of radius 0.45, V=1,
kknps × ssync with the grid forced on, 3n activations — whose median
wall seconds over 7 runs, peak RSS and output digest are recorded at
n=2,000 and 4,000,
and crowding rows: n robots uniform in a square, about S pairs a robot
sharing a grid cell (S = 8 and 32 at n = 2·10^4, each side of the pair
set's carry bound; S = 200 at n = 4·10^4, a 10 x 10 square), 2n
activations, each also run with the pair set forced onto its other
branch (keys held, or none).

Beside the ladder, the ``metrics_observe`` layer times one
``MetricsCollector.observe`` call: a step sample (diameter and broken
edges, taken at every processed activation) and a full sample (adding
the hull perimeter, bounding circle and minimum separation, taken at t=0
and at the end of a run), in microseconds per call, median and
interquartile range over blocks of calls.  Its rows are the n=200
``random_connected_configuration(200, seed=3)`` of the per-activation
path and the n=10^4 ``grid`` start of the ladder.

``--baseline-src`` also measures every subprocess row (ladder and
workload) on another checkout's ``src`` directory, e.g. the parent
commit's, and records it as the row's ``baseline`` (the checkout's commit
as ``baseline_commit``); a baseline whose output digest differs fails the
bench.

Run it from the repository root::

    python benchmarks/bench_layers.py            # n = 10^3 … 10^6, writes BENCH_layers.json
    python benchmarks/bench_layers.py --smoke    # n = 10^3 and 10^4 once, small sizes (CI)
    python benchmarks/bench_layers.py --baseline-src ../parent/src   # rows beside the parent's
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "BENCH_layers.json"

#: ``(n, repeats)`` per ladder row; the n = 10^6 row runs once (~20 s).
FULL_ROWS = ((1_000, 7), (10_000, 5), (100_000, 5), (1_000_000, 1))
SMOKE_ROWS = ((1_000, 1), (10_000, 1))
#: Seed of every row's run (the sweep seed of its one-run spec).
SEED = 7

#: ``workload_setup`` rows: every planar registry workload at this size,
#: generated ``repeats`` times from one seed (smoke: once, at a tenth).
WORKLOAD_ROWS = (4_000, 3)
SMOKE_WORKLOAD_ROWS = (400, 1)
WORKLOAD_SEED = 0

#: ``metrics_observe`` rows: ``(workload, n, calls per block)`` of step
#: samples (full samples take a quarter as many), and blocks per row.
OBSERVE_ROWS = (("random_connected", 200, 200), ("grid", 10_000, 20))

#: ``round_pairs`` refresh rows: ``(n, repeats)`` of the ladder's ``grid``
#: start and how many rows move before the timed refresh (None: all).
REFRESH_ROWS = ((100_000, 7),)
SMOKE_REFRESH_ROWS = ((10_000, 3),)
REFRESH_MOVED = (0, 5, 1000, None)
#: ``round_pairs`` contracted-swarm sizes (3n activations each), and how
#: many runs of each (each beside one of the baseline's) the row's median
#: wall seconds take: one run's wall time varied by ±15% on a shared host.
CONTRACTED_ROWS = (2000, 4000)
SMOKE_CONTRACTED_ROWS = (300,)
CONTRACTED_REPEATS = 7
#: ``round_pairs`` crowding rows: ``(n, S)`` for n robots uniform in a
#: square of side ``sqrt(n / 2S)``, where about ``S`` pairs per robot share
#: a grid cell: one row on each side of the pair set's carry bound
#: (``CARRY_CELL_PAIRS_PER_ROW = 16``), and 4·10^4 robots in a 10 x 10
#: square.  2n activations each.
SQUARE_ROWS = ((20_000, 8), (20_000, 32), (40_000, 200))
SMOKE_SQUARE_ROWS = ((2_000, 8), (2_000, 32))
OBSERVE_BLOCKS = 7
SMOKE_OBSERVE_BLOCKS = 3


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host() -> dict:
    """The fingerprint of the machine and toolchain the rows were measured on."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _spread(values) -> dict:
    """Median and interquartile range (0 for fewer than two values)."""
    ordered = sorted(values)
    iqr = 0.0
    if len(ordered) >= 2:
        low, _, high = statistics.quantiles(ordered, n=4, method="inclusive")
        iqr = high - low
    return {"median": statistics.median(ordered), "iqr": iqr}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_row(n: int, repeats: int) -> dict:
    """One ladder row, measured in this process (the parent spawns one per size)."""
    import numpy as np

    from repro.engine.simulator import Simulator
    from repro.sweeps.runner import planar_setup
    from repro.sweeps.spec import SweepSpec

    spec = SweepSpec(
        algorithms=("kknps",),
        schedulers=("ssync",),
        workloads=("grid",),
        n_robots=(n,),
        seeds=(SEED,),
        max_activations=n,
    ).expand()[0]
    setup_s, run_s, digests = [], [], set()
    activations = 0
    for _ in range(repeats):
        started = time.perf_counter()
        configuration, algorithm, scheduler, config = planar_setup(spec)
        sim = Simulator(configuration.positions, algorithm, scheduler, config)
        ready = time.perf_counter()
        result = sim.run()
        done = time.perf_counter()
        setup_s.append(ready - started)
        run_s.append(done - ready)
        activations = result.activations_processed
        diameters = np.array(result.metrics.diameters(), dtype=float)
        payload = sim.positions_array().tobytes() + diameters.tobytes()
        digests.add(hashlib.sha256(payload).hexdigest())
        del configuration, sim, result
    if len(digests) != 1:
        raise RuntimeError(f"n={n}: repeats disagree on the output digest")
    return {
        "layer": "round_mega_ladder",
        "workload": "grid",
        "algorithm": "kknps",
        "scheduler": "ssync",
        "n": n,
        "seed": SEED,
        "repeats": repeats,
        "activations": activations,
        "setup_s": _spread(setup_s),
        "run_s": _spread(run_s),
        "activations_per_s": activations / statistics.median(run_s),
        "peak_rss_mb": _peak_rss_mb(),
        "output_digest": digests.pop(),
    }


def measure_workload(name: str, n: int, repeats: int) -> dict:
    """One ``workload_setup`` row, measured in this process."""
    import numpy as np

    from repro.sweeps.factories import make_workload

    setup_s, digests = [], set()
    for _ in range(repeats):
        started = time.perf_counter()
        configuration = make_workload(name, n, WORKLOAD_SEED)
        setup_s.append(time.perf_counter() - started)
        rows = np.asarray(configuration.as_array(), dtype=float)
        payload = rows.tobytes() + repr(configuration.visibility_range).encode()
        digests.add(hashlib.sha256(payload).hexdigest())
        del configuration, rows
    if len(digests) != 1:
        raise RuntimeError(f"{name} n={n}: repeats disagree on the output digest")
    return {
        "layer": "workload_setup",
        "workload": name,
        "n": n,
        "seed": WORKLOAD_SEED,
        "repeats": repeats,
        "setup_s": _spread(setup_s),
        "peak_rss_mb": _peak_rss_mb(),
        "output_digest": digests.pop(),
    }


def _ladder_start(n: int):
    """The simulator of the ladder's ``grid`` run at size ``n``, set up."""
    from repro.engine.simulator import Simulator
    from repro.sweeps.runner import planar_setup
    from repro.sweeps.spec import SweepSpec

    spec = SweepSpec(
        algorithms=("kknps",), schedulers=("ssync",), workloads=("grid",),
        n_robots=(n,), seeds=(SEED,), max_activations=n,
    ).expand()[0]
    configuration, algorithm, scheduler, config = planar_setup(spec)
    return Simulator(configuration.positions, algorithm, scheduler, config)


def _round_structure(sim, rows):
    """The round path's neighbour structure at ``rows``, as the checkout builds it.

    The carried visible pairs' refresh; a checkout without them
    (a baseline) builds its per-round shard and candidate lists.
    """
    if hasattr(sim, "_round_pairs"):
        return sim._round_pairs(rows)
    shard = sim._round_shard(rows)
    shard.warm_candidates()
    return shard


def measure_refresh(n: int, moved, repeats: int) -> dict:
    """One ``round_pairs`` refresh row: µs per refresh after ``moved`` rows moved."""
    import numpy as np

    start = _ladder_start(n)._arrays.position.copy()
    after = start.copy()
    count = n if moved is None else moved
    picked = np.random.default_rng(SEED).choice(n, size=count, replace=False)
    after[picked, 0] += 0.05
    timings = []
    for _ in range(repeats):
        sim = _ladder_start(n)
        _round_structure(sim, start)
        started = time.perf_counter()
        _round_structure(sim, after)
        timings.append((time.perf_counter() - started) * 1e6)
    return {
        "layer": "round_pairs",
        "kind": "refresh",
        "workload": "grid",
        "n": n,
        "moved": count,
        "repeats": repeats,
        "refresh_us": _spread(timings),
        "peak_rss_mb": _peak_rss_mb(),
        # The rows refreshed to: the same in every checkout.
        "output_digest": hashlib.sha256(after.tobytes()).hexdigest(),
    }


def contracted_configuration(n: int):
    """``n`` robots uniform in a disk of radius 0.45: every pair within V=1."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    radius = 0.45 * np.sqrt(rng.random(n))
    angle = 2.0 * np.pi * rng.random(n)
    return np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))


def measure_contracted(n: int) -> dict:
    """One ``round_pairs`` contracted-swarm row: kknps × ssync, 3n activations."""
    import numpy as np

    from repro.algorithms import KKNPSAlgorithm
    from repro.engine.simulator import SimulationConfig, Simulator
    from repro.schedulers import SSyncScheduler

    started = time.perf_counter()
    sim = Simulator(
        contracted_configuration(n),
        KKNPSAlgorithm(k=1),
        SSyncScheduler(),
        SimulationConfig(
            visibility_range=1.0, seed=SEED, max_activations=3 * n,
            stop_at_convergence=False,
        ),
    )
    result = sim.run()
    wall = time.perf_counter() - started
    diameters = np.array(result.metrics.diameters(), dtype=float)
    payload = sim.positions_array().tobytes() + diameters.tobytes()
    return {
        "layer": "round_pairs",
        "kind": "contracted",
        "n": n,
        "activations": result.activations_processed,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "output_digest": hashlib.sha256(payload).hexdigest(),
    }


def square_configuration(n: int, shared: float):
    """``n`` robots uniform in a square where about ``shared`` pairs a robot share a cell."""
    import numpy as np

    return np.random.default_rng(SEED).random((n, 2)) * math.sqrt(n / (2.0 * shared))


def measure_square(n: int, shared: float, branch: str) -> dict:
    """One ``round_pairs`` crowding row: kknps × ssync, 2n activations.

    ``branch`` "held" or "crowded" moves the carry bound so the pair set
    holds its keys, or holds none, whatever the density; "auto" keeps it.
    """
    import numpy as np

    from repro.algorithms import KKNPSAlgorithm
    from repro.engine.simulator import SimulationConfig, Simulator
    from repro.geometry import pairs
    from repro.schedulers import SSyncScheduler

    if branch != "auto":
        pairs.CARRY_CELL_PAIRS_PER_ROW = math.inf if branch == "held" else -1
    positions = square_configuration(n, shared)
    started = time.perf_counter()
    sim = Simulator(
        positions,
        KKNPSAlgorithm(k=1),
        SSyncScheduler(),
        SimulationConfig(
            visibility_range=1.0, seed=SEED, max_activations=2 * n,
            stop_at_convergence=False,
        ),
    )
    result = sim.run()
    wall = time.perf_counter() - started
    diameters = np.array(result.metrics.diameters(), dtype=float)
    payload = sim.positions_array().tobytes() + diameters.tobytes()
    row = {
        "layer": "round_pairs",
        "kind": "square",
        "n": n,
        "side": math.sqrt(n / (2.0 * shared)),
        "activations": result.activations_processed,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "output_digest": hashlib.sha256(payload).hexdigest(),
    }
    carry = getattr(pairs, "CARRY_CELL_PAIRS_PER_ROW", None)
    if carry is not None:
        cell = pairs.covering_cell(positions, 1.0 + 1e-9)
        row["shared_cell_pairs_per_row"] = (
            pairs.ShardedGridIndex(positions, cell).same_cell_pairs() / n
        )
        row["branch"] = "crowded" if row["shared_cell_pairs_per_row"] > carry else "held"
    return row


def _observe_start(workload: str, n: int):
    """The positions and visibility range a ``metrics_observe`` row samples."""
    import numpy as np

    from repro.sweeps.runner import planar_setup
    from repro.sweeps.spec import SweepSpec
    from repro.workloads import random_connected_configuration

    if workload == "random_connected":
        configuration = random_connected_configuration(n, seed=3)
    else:
        spec = SweepSpec(
            algorithms=("kknps",), schedulers=("ssync",), workloads=(workload,),
            n_robots=(n,), seeds=(SEED,), max_activations=n,
        ).expand()[0]
        configuration = planar_setup(spec)[0]
    positions = np.array([(p.x, p.y) for p in configuration.positions], dtype=float)
    return positions, configuration.visibility_range


def measure_observe(workload: str, n: int, calls: int, blocks: int) -> dict:
    """One ``metrics_observe`` row: microseconds per step and per full observe."""
    from repro.engine.metrics import MetricsCollector

    positions, visibility = _observe_start(workload, n)
    collector = MetricsCollector(visibility_range=visibility)
    collector.bind_initial(positions)
    full_calls = max(1, calls // 4)
    timings = {}
    for name, full, count in (("step_us", False, calls), ("full_us", True, full_calls)):
        per_call = []
        for _ in range(blocks):
            started = time.perf_counter()
            for k in range(count):
                collector.observe(float(k), positions, k, full=full)
            per_call.append((time.perf_counter() - started) / count * 1e6)
        timings[name] = _spread(per_call)
    step = collector.observe(0.0, positions, 0)
    full = collector.observe(0.0, positions, 0, full=True)
    if (step.hull_diameter, step.broken_edge_count) != (
        full.hull_diameter, full.broken_edge_count
    ):
        raise RuntimeError(f"{workload} n={n}: step and full samples disagree")
    return {
        "layer": "metrics_observe",
        "workload": workload,
        "n": n,
        "edges": len(collector._edge_i),
        "blocks": blocks,
        "calls": {"step": calls, "full": full_calls},
        **timings,
        "full_over_step": timings["full_us"]["median"] / timings["step_us"]["median"],
    }


def run_observe(blocks: int) -> list:
    """The ``metrics_observe`` rows, measured in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    out = []
    for workload, n, calls in OBSERVE_ROWS:
        row = measure_observe(workload, n, calls, blocks)
        out.append(row)
        print(
            f"observe {workload:<16} n={n:<6} step {row['step_us']['median']:9.1f} us "
            f"(IQR {row['step_us']['iqr']:.1f})  full {row['full_us']['median']:9.1f} us "
            f"(IQR {row['full_us']['iqr']:.1f})"
        )
    return out


def _child(request: list, src: Path) -> dict:
    """One subprocess row, measured in a fresh interpreter on ``src``."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--src", str(src), *request],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])


def _measured(request: list, baseline_src) -> dict:
    """The row of ``request`` on this tree, and on ``baseline_src`` when given."""
    row = _child(request, ROOT / "src")
    if baseline_src is not None:
        base = _child(request, baseline_src)
        if base["output_digest"] != row["output_digest"]:
            raise RuntimeError(f"{request}: the baseline's output digest differs")
        row["baseline"] = {
            key: base[key]
            for key in (
                "setup_s", "run_s", "activations_per_s", "refresh_us", "wall_s",
                "peak_rss_mb",
            )
            if key in base
        }
    return row


def _commit_of(src: Path) -> str:
    """The git commit of the checkout holding ``src`` ("unknown" outside git)."""
    found = subprocess.run(
        ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return found.stdout.strip() or "unknown"


def _baseline_note(row: dict) -> str:
    base = row.get("baseline")
    if base is None:
        return ""
    if "refresh_us" in base:
        spent = f"refresh {base['refresh_us']['median']:10.0f} us"
    elif "wall_s" in base:
        spent = f"wall {base['wall_s']:7.3f}s"
    else:
        spent = f"setup {base['setup_s']['median']:7.3f}s"
    return f"  [baseline {spent}, peak {base['peak_rss_mb']:7.1f} MB]"


def run_ladder(rows, baseline_src=None) -> list:
    """Every row in a fresh interpreter, printed as it lands."""
    out = []
    for n, repeats in rows:
        row = _measured(["--row", str(n), str(repeats)], baseline_src)
        out.append(row)
        print(
            f"n={n:<8} setup {row['setup_s']['median']:7.3f}s  "
            f"run {row['run_s']['median']:8.3f}s (IQR {row['run_s']['iqr']:.3f}, "
            f"k={repeats})  {row['activations_per_s']:9.0f} act/s  "
            f"peak {row['peak_rss_mb']:7.1f} MB" + _baseline_note(row)
        )
    return out


def run_workloads(n: int, repeats: int, baseline_src=None) -> list:
    """Every planar registry workload generated in a fresh interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sweeps.factories import WORKLOAD_FACTORIES

    out = []
    for name in WORKLOAD_FACTORIES:
        row = _measured(["--workload", name, str(n), str(repeats)], baseline_src)
        out.append(row)
        print(
            f"workload {name:<15} n={n:<6} setup {row['setup_s']['median']:7.3f}s "
            f"(IQR {row['setup_s']['iqr']:.3f}, k={repeats})  "
            f"peak {row['peak_rss_mb']:7.1f} MB" + _baseline_note(row)
        )
    return out


def run_round_pairs(
    refresh_rows, contracted_rows, contracted_repeats, square_rows, baseline_src=None
) -> list:
    """The ``round_pairs`` rows, each in a fresh interpreter.

    A contracted row's wall seconds are the median of ``contracted_repeats`` runs
    (each beside a baseline run when there is a baseline).  A crowding
    row also runs its other branch (the pair set made to hold its keys,
    or none) on this tree, as ``other_branch``.
    """
    out = []
    for n, repeats in refresh_rows:
        for moved in REFRESH_MOVED:
            label = "all" if moved is None else str(moved)
            row = _measured(["--refresh", str(n), label, str(repeats)], baseline_src)
            out.append(row)
            print(
                f"refresh n={n:<7} moved {label:>5}  "
                f"{row['refresh_us']['median']:10.0f} us (IQR {row['refresh_us']['iqr']:.0f}, "
                f"k={repeats})  peak {row['peak_rss_mb']:7.1f} MB" + _baseline_note(row)
            )
    for n in contracted_rows:
        runs = [
            _measured(["--contracted", str(n)], baseline_src)
            for _ in range(contracted_repeats)
        ]
        row = runs[0]
        row["repeats"] = contracted_repeats
        for side in [row] + ([row["baseline"]] if baseline_src is not None else []):
            walls = [run["wall_s"] if side is row else run["baseline"]["wall_s"] for run in runs]
            side["wall_s"] = statistics.median(walls)
            side["wall_s_runs"] = walls
        out.append(row)
        print(
            f"contracted n={n:<5} wall {row['wall_s']:7.3f}s  "
            f"peak {row['peak_rss_mb']:7.1f} MB" + _baseline_note(row)
        )
    for n, shared in square_rows:
        row = _measured(["--square", str(n), str(shared), "auto"], baseline_src)
        other = "held" if row["branch"] == "crowded" else "crowded"
        flipped = _child(["--square", str(n), str(shared), other], ROOT / "src")
        if flipped["output_digest"] != row["output_digest"]:
            raise RuntimeError(f"square {n} {shared}: the {other} branch's output differs")
        row["other_branch"] = {
            "branch": other, "wall_s": flipped["wall_s"], "peak_rss_mb": flipped["peak_rss_mb"]
        }
        out.append(row)
        print(
            f"square n={n:<6} S/n {row['shared_cell_pairs_per_row']:6.1f} {row['branch']:>7}  "
            f"wall {row['wall_s']:7.3f}s  peak {row['peak_rss_mb']:7.1f} MB  "
            f"[{other} wall {flipped['wall_s']:7.3f}s, peak {flipped['peak_rss_mb']:7.1f} MB]"
            + _baseline_note(row)
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="n = 10^3 and 10^4 once: checks the bench runs and emits valid JSON",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_PATH,
        help=f"where to write the JSON results (default: {BENCH_PATH})",
    )
    parser.add_argument(
        "--baseline-src",
        type=Path,
        help="also measure the ladder and workload rows on this src directory "
        "(e.g. the parent commit's) and record them as each row's baseline",
    )
    # Internal: measure one row in this process on --src and print it as JSON.
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    parser.add_argument("--row", nargs=2, type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workload", nargs=3, help=argparse.SUPPRESS)
    parser.add_argument("--refresh", nargs=3, help=argparse.SUPPRESS)
    parser.add_argument("--contracted", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--square", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row or args.workload or args.refresh or args.contracted or args.square:
        sys.path.insert(0, str(args.src.resolve()))
        if args.row:
            row = measure_row(*args.row)
        elif args.workload:
            name, n, repeats = args.workload
            row = measure_workload(name, int(n), int(repeats))
        elif args.refresh:
            n, moved, repeats = args.refresh
            row = measure_refresh(int(n), None if moved == "all" else int(moved), int(repeats))
        elif args.square:
            n, shared, branch = args.square
            row = measure_square(int(n), float(shared), branch)
        else:
            row = measure_contracted(args.contracted)
        print(json.dumps(row))
        return 0

    baseline = args.baseline_src.resolve() if args.baseline_src else None
    rows = run_ladder(SMOKE_ROWS if args.smoke else FULL_ROWS, baseline)
    rows += run_workloads(*(SMOKE_WORKLOAD_ROWS if args.smoke else WORKLOAD_ROWS), baseline)
    rows += run_round_pairs(
        SMOKE_REFRESH_ROWS if args.smoke else REFRESH_ROWS,
        SMOKE_CONTRACTED_ROWS if args.smoke else CONTRACTED_ROWS,
        1 if args.smoke else CONTRACTED_REPEATS,
        SMOKE_SQUARE_ROWS if args.smoke else SQUARE_ROWS,
        baseline,
    )
    rows += run_observe(SMOKE_OBSERVE_BLOCKS if args.smoke else OBSERVE_BLOCKS)
    payload = {"host": host(), "smoke": bool(args.smoke), "rows": rows}
    if baseline is not None:
        payload["baseline_commit"] = _commit_of(baseline)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    # The JSON contract the CI smoke step relies on.
    parsed = json.loads(args.output.read_text())
    layers = {row["layer"] for row in parsed["rows"]}
    assert layers == {
        "round_mega_ladder", "workload_setup", "round_pairs", "metrics_observe"
    }, layers
    for row in parsed["rows"]:
        if row["layer"] == "metrics_observe":
            assert 0 < row["step_us"]["median"] and 0 < row["full_us"]["median"]
            continue
        if row["layer"] == "round_pairs":
            assert row["peak_rss_mb"] > 0 and len(row["output_digest"]) == 64
            if row["kind"] == "refresh":
                assert row["refresh_us"]["median"] > 0
            elif row["kind"] == "square":
                assert row["activations"] == 2 * row["n"] and row["wall_s"] > 0
                assert row["other_branch"]["branch"] != row["branch"]
            else:
                assert row["activations"] == 3 * row["n"] and row["wall_s"] > 0
            continue
        if row["layer"] == "workload_setup":
            assert row["setup_s"]["median"] > 0 and row["peak_rss_mb"] > 0
            assert len(row["output_digest"]) == 64
            continue
        assert 0 < row["activations"] <= row["n"] and row["run_s"]["median"] > 0
        assert row["peak_rss_mb"] > 0 and len(row["output_digest"]) == 64
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
