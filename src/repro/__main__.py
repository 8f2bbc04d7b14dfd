"""Command-line interface: run one simulation (or a sweep) from the shell.

Examples::

    python -m repro --algorithm kknps --scheduler k-async --k 3 --robots 20
    python -m repro --algorithm ando --scheduler ssync --robots 12 --epsilon 0.02
    python -m repro --workload clusters --svg out.svg --trace
    python -m repro sweep --algorithms kknps ando --workers 4 --out results.jsonl
    python -m repro sweep --smoke
    python -m repro serve --store results.sqlite
    python -m repro submit --smoke --wait
    python -m repro store stats --store results.sqlite

The default form builds a workload of exactly ``--robots`` robots, runs
the requested algorithm under the requested scheduler, prints a summary
table, and can optionally dump the trajectories to an SVG file.  The
names and the objects they build are the sweep engine's planar
registries (:mod:`repro.sweeps.factories`), so a single run is the run
a sweep row of the same names describes.  The ``sweep`` subcommand fans
a whole parameter grid out across worker processes (see
:mod:`repro.sweeps`); ``store`` inspects and imports into the persistent
results store (:mod:`repro.store`); ``serve``/``submit``/``status``/
``results`` run and talk to the sweep job service (:mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.tables import render_key_values
from .engine import SimulationConfig, run_simulation
from .geometry.transforms import SymmetricDistortion
from .model import MotionModel, PerceptionModel
from .sweeps.factories import (
    ALGORITHM_FACTORIES,
    SCHEDULER_FACTORIES,
    WORKLOAD_FACTORIES,
    make_algorithm,
    make_scheduler,
    make_workload,
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run one Point-Convergence simulation (PODC 2021 reproduction).",
        epilog="Subcommand: 'python -m repro sweep --help' runs whole parameter "
               "grids across worker processes with resumable JSONL results.",
    )
    parser.add_argument("--algorithm", choices=tuple(ALGORITHM_FACTORIES), default="kknps")
    parser.add_argument("--scheduler", choices=tuple(SCHEDULER_FACTORIES), default="k-async")
    parser.add_argument("--workload", choices=tuple(WORKLOAD_FACTORIES), default="random")
    parser.add_argument(
        "--robots", dest="n_robots", type=int, default=15, help="number of robots"
    )
    parser.add_argument("--k", type=int, default=2, help="asynchrony bound for k-Async/k-NestA")
    parser.add_argument("--epsilon", type=float, default=0.05, help="convergence threshold")
    parser.add_argument("--max-activations", type=int, default=30000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--xi", type=float, default=1.0, help="rigidity lower bound in (0, 1]")
    parser.add_argument("--distance-error", type=float, default=0.0,
                        help="relative distance measurement error bound")
    parser.add_argument("--skew", type=float, default=0.0, help="compass skew bound")
    parser.add_argument("--svg", type=str, default=None,
                        help="write the trajectories of the run to this SVG file")
    parser.add_argument("--trace", action="store_true",
                        help="print the hull-diameter trace of the run")
    return parser


def build_run(args: argparse.Namespace):
    """``(configuration, algorithm, scheduler)`` of one run, from the sweep registries.

    The workload has exactly ``args.n_robots`` robots; ``--k``,
    ``--distance-error`` and ``--skew`` parametrise the KKNPS algorithm,
    and ``--k`` the k-schedulers.  A workload that cannot hold that many
    robots raises ``ValueError``.
    """
    params = ()
    if args.algorithm == "kknps":
        params = (
            ("k", args.k),
            ("distance_error_tolerance", args.distance_error),
            ("skew_tolerance", args.skew),
        )
    return (
        make_workload(args.workload, args.n_robots, args.seed),
        make_algorithm(args.algorithm, params),
        make_scheduler(args.scheduler, args.k),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro`` (single run, or the sweep subcommand)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        from .sweeps.cli import main as sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "store":
        from .store.cli import main as store_main

        return store_main(argv[1:])
    if argv and argv[0] in ("serve", "submit", "status", "results"):
        from .service import cli as service_cli

        verb_main = getattr(service_cli, f"main_{argv[0]}")
        return verb_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        configuration, algorithm, scheduler = build_run(args)
    except ValueError as exc:
        parser.error(str(exc))

    perception = PerceptionModel(
        distance_error=args.distance_error,
        distortion=SymmetricDistortion(amplitude=args.skew, frequency=2) if args.skew else None,
    )
    config = SimulationConfig(
        visibility_range=configuration.visibility_range,
        max_activations=args.max_activations,
        convergence_epsilon=args.epsilon,
        seed=args.seed,
        k_bound=args.k,
        perception=perception,
        motion=MotionModel(xi=args.xi),
        record_trajectories=args.svg is not None,
    )
    result = run_simulation(configuration.positions, algorithm, scheduler, config)

    print(
        render_key_values(
            f"{algorithm.describe()} under {scheduler.describe()} on "
            f"{args.workload} workload ({len(configuration)} robots)",
            [
                ("converged", result.converged),
                ("convergence time", result.convergence_time),
                ("cohesion maintained", result.cohesion_maintained),
                ("activations processed", result.activations_processed),
                ("initial hull diameter", result.initial_hull_diameter),
                ("final hull diameter", result.final_hull_diameter),
                ("simulated time", result.final_time),
                ("wall time (s)", result.wall_time_seconds),
            ],
        )
    )

    if args.trace:
        print("\nhull-diameter trace:")
        samples = result.metrics.samples
        step = max(1, len(samples) // 25)
        for sample in samples[::step]:
            print(f"  t = {sample.time:10.2f}   diameter = {sample.hull_diameter:.6f}")

    if args.svg is not None and result.trajectories is not None:
        from .viz import render_trajectories

        canvas = render_trajectories(
            result.trajectories,
            title=f"{algorithm.describe()} under {scheduler.describe()}",
        )
        canvas.write(args.svg)
        print(f"\ntrajectories written to {args.svg}")

    return 0 if (result.converged and result.cohesion_maintained) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
