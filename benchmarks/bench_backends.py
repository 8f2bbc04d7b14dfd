"""Bench — the multi-worker sweep backends on a deliberately skewed grid.

The straggler problem: a sweep mixing cheap runs (n=6 planar) with
expensive ones (n=120 planar, n=48 3D), chunked in expansion order,
parks the expensive tail on one worker while the rest idle.  The
work-stealing backend (the multi-worker default) orders the queue
largest-first (cost model), shrinks chunks as the queue drains, and
lets idle workers steal, so the tail spreads.

Three measurements, written to ``BENCH_backends.json``:

* **scheduling** — the skewed grid on the work-stealing backend with a
  *calibrated simulated run function* (each "run" sleeps for a duration
  proportional to its spec's ``cost_hint``).  Sleeping runs parallelise
  on any machine, so this isolates the scheduling layer — chunk
  placement, steal-on-idle, straggler tail — from CPU-core contention,
  and is the regime remote/IO-bound workers (the socket backend) live
  in.  Compare ``wall_s`` with ``simulated_total_s / workers``, the
  perfectly balanced wall time.
* **end_to_end** — a smaller skewed grid through the real
  :func:`~repro.sweeps.runner.execute_run` on the work-stealing
  backend.  With fewer cores than workers, total CPU bounds the wall
  time; the JSON records ``cpu_count`` alongside.
* **churn** — the same simulated grid on the socket backend, clean and
  with one worker SIGKILLed a quarter of the way in.  The coordinator
  requeues the dead worker's leased chunk and finishes on the
  survivors; the section records the recovery overhead (killed wall /
  clean wall) plus the loss and requeue counters.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_backends.py            # full grid
    PYTHONPATH=src python benchmarks/bench_backends.py --smoke    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.sweeps import RunSpec
from repro.sweeps.backends import ExecutionBackend, SocketBackend, WorkStealingBackend

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"

WORKERS = 4
#: Seconds of simulated work per second of ``cost_hint`` (scheduling and
#: churn sections): the full skewed grid's hints total ~3.7 s -> ~7.4 s of
#: simulated work, the smoke grid's ~0.3 s -> ~0.12 s.
FULL_SCALE = 2.0
SMOKE_SCALE = 0.4


def _light(seed: int, max_activations: int) -> RunSpec:
    return RunSpec(
        algorithm="kknps", scheduler="ssync", workload="line", n_robots=6,
        seed=seed, epsilon=0.08, max_activations=max_activations,
    )


def _heavy_planar(seed: int, n: int, max_activations: int) -> RunSpec:
    return RunSpec(
        algorithm="kknps", scheduler="ssync", workload="random", n_robots=n,
        seed=seed, epsilon=0.05, max_activations=max_activations,
    )


def _heavy_3d(seed: int, n: int, rounds: int) -> RunSpec:
    return RunSpec(
        algorithm="kknps3", scheduler="ssync3", workload="random3", n_robots=n,
        seed=seed, algorithm_params=(("k", 1),), scheduler_k=1,
        epsilon=0.05, max_activations=rounds,
    )


def skewed_grid(*, smoke: bool) -> List[RunSpec]:
    """Mixed-n, mixed-dimension runs, cheap first and expensive last.

    Ascending-cost order is the natural way users write grids (small n
    first) and is exactly what chunks the expensive tail onto one static
    worker.
    """
    if smoke:
        return (
            [_light(seed, 150) for seed in range(12)]
            + [_heavy_planar(seed, 60, 600) for seed in range(2)]
            + [_heavy_3d(0, 24, 20)]
        )
    return (
        [_light(seed, 300) for seed in range(24)]
        + [_heavy_planar(seed, 120, 2000) for seed in range(4)]
        + [_heavy_3d(seed, 48, 40) for seed in range(2)]
    )


# -- scheduling section: calibrated simulated runs ---------------------------

#: Set in each worker via the spec's cost; module-level so it pickles.
_SIMULATED_SCALE = float(os.environ.get("BENCH_BACKENDS_SCALE", FULL_SCALE))


def simulated_run(spec: RunSpec) -> Dict[str, object]:
    """Sleep for the spec's modelled cost and return a minimal row."""
    duration = spec.cost_hint() * _SIMULATED_SCALE
    time.sleep(duration)
    return {"run_key": spec.run_key, "simulated_s": duration}


def _drain(backend: ExecutionBackend, specs: Sequence[RunSpec]) -> Dict[str, object]:
    """Execute the grid on ``backend`` and summarise wall time + balance."""
    started = time.perf_counter()
    rows = sum(1 for _ in backend.execute(specs))
    wall = time.perf_counter() - started
    assert rows == len(specs), f"backend dropped rows: {rows}/{len(specs)}"
    stats = backend.stats()
    busy = [worker.busy_s for worker in stats.worker_health] or [0.0]
    summary = {
        "backend": stats.backend,
        "workers": stats.workers,
        "wall_s": round(wall, 4),
        "worker_busy_s": [round(b, 4) for b in sorted(busy, reverse=True)],
        # The straggler tail: how long the last worker kept running after
        # the first one went idle (assuming a common start).
        "straggler_tail_s": round(max(busy) - min(busy), 4),
        "imbalance": round(max(busy) / (sum(busy) / len(busy)), 3)
        if sum(busy) > 0
        else 1.0,
    }
    if stats.backend == "work-stealing":
        summary["steals"] = stats.steals
    return summary


def bench_scheduling(specs: Sequence[RunSpec], scale: float) -> Dict[str, object]:
    global _SIMULATED_SCALE
    _SIMULATED_SCALE = scale
    os.environ["BENCH_BACKENDS_SCALE"] = repr(scale)
    return {
        "simulated_total_s": round(sum(s.cost_hint() for s in specs) * scale, 4),
        "work_stealing": _drain(
            WorkStealingBackend(workers=WORKERS, run_fn=simulated_run), specs
        ),
    }


def bench_churn(specs: Sequence[RunSpec], scale: float) -> Dict[str, object]:
    """Socket-backend fault tolerance: clean run vs one worker SIGKILLed.

    The kill fires after a quarter of the rows have streamed back, so the
    victim is almost certainly mid-chunk; the coordinator requeues its
    lease and the survivors finish the sweep.  Recovery overhead is the
    killed wall time over the clean wall time — the price of losing one
    of ``WORKERS`` workers plus re-executing the interrupted chunk.
    """
    global _SIMULATED_SCALE
    _SIMULATED_SCALE = scale
    os.environ["BENCH_BACKENDS_SCALE"] = repr(scale)
    clean = _drain(SocketBackend(workers=WORKERS, run_fn=simulated_run), specs)

    backend = SocketBackend(workers=WORKERS, run_fn=simulated_run)
    kill_after = max(2, len(specs) // 4)
    started = time.perf_counter()
    rows = 0
    killed = False
    for _ in backend.execute(specs):
        rows += 1
        if not killed and rows >= kill_after:
            victim = next(p for p in backend._processes if p.is_alive())
            os.kill(victim.pid, signal.SIGKILL)
            killed = True
    wall = time.perf_counter() - started
    assert rows == len(specs), f"churn run dropped rows: {rows}/{len(specs)}"
    stats = backend.stats()
    return {
        "socket_clean": clean,
        "socket_killed": {
            "backend": stats.backend,
            "workers": stats.workers,
            "wall_s": round(wall, 4),
            "killed_after_rows": kill_after,
            "worker_losses": stats.worker_losses,
            "requeued_chunks": stats.requeued_chunks,
        },
        "recovery_overhead": round(wall / clean["wall_s"], 3)
        if clean["wall_s"] > 0
        else 1.0,
    }


def bench_end_to_end(specs: Sequence[RunSpec]) -> Dict[str, object]:
    return {
        "work_stealing": _drain(WorkStealingBackend(workers=WORKERS), specs),
        "note": (
            "CPU-bound: with fewer cores than workers, total CPU bounds the "
            "wall time; the scheduling section above isolates the balance "
            "effect."
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid + short delays: verifies the bench runs and emits valid JSON",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_PATH,
        help=f"where to write the JSON results (default: {BENCH_PATH})",
    )
    args = parser.parse_args(argv)

    specs = skewed_grid(smoke=args.smoke)
    costs = [spec.cost_hint() for spec in specs]
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE

    print(f"skewed grid: {len(specs)} runs, cost skew {max(costs) / min(costs):.0f}x")
    scheduling = bench_scheduling(specs, scale)
    print(
        f"scheduling  work-stealing {scheduling['work_stealing']['wall_s']:.2f}s "
        f"(balanced {scheduling['simulated_total_s'] / WORKERS:.2f}s, "
        f"tail {scheduling['work_stealing']['straggler_tail_s']:.2f}s, "
        f"{scheduling['work_stealing']['steals']} steals)"
    )
    end_to_end = bench_end_to_end(
        skewed_grid(smoke=True) if not args.smoke else specs[: max(4, len(specs) // 2)]
    )
    print(
        f"end-to-end  work-stealing {end_to_end['work_stealing']['wall_s']:.2f}s "
        f"(tail {end_to_end['work_stealing']['straggler_tail_s']:.2f}s)"
    )
    churn = bench_churn(specs, scale)
    print(
        f"churn       socket clean {churn['socket_clean']['wall_s']:.2f}s  "
        f"1 of {WORKERS} workers killed {churn['socket_killed']['wall_s']:.2f}s "
        f"(losses {churn['socket_killed']['worker_losses']}, "
        f"requeued {churn['socket_killed']['requeued_chunks']})  "
        f"recovery overhead {churn['recovery_overhead']:.2f}x"
    )

    payload = {
        "bench": "bench_backends",
        "description": (
            "The work-stealing and socket backends on a deliberately "
            "skewed grid (mixed n, mixed dimension, expensive tail last).  "
            "The scheduling section runs calibrated simulated runs (sleep "
            "proportional to cost_hint) on the work-stealing backend to "
            "isolate chunk placement and steal-on-idle from CPU-core "
            "contention; the end_to_end section runs the real execute_run "
            "on it; the churn section measures socket-backend recovery "
            "from a worker SIGKILLed mid-sweep (lease requeue)."
        ),
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "grid": {
            "runs": len(specs),
            "cost_skew": round(max(costs) / min(costs), 1),
            "dimensions": sorted(
                {3 if spec.algorithm.endswith("3") else 2 for spec in specs}
            ),
        },
        "scheduling": scheduling,
        "end_to_end": end_to_end,
        "churn": churn,
    }

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    # The JSON contract the CI smoke step relies on.
    parsed = json.loads(args.output.read_text())
    assert parsed["scheduling"]["work_stealing"]["wall_s"] > 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
