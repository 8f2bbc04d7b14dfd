"""The ``python -m repro sweep`` subcommand.

Builds a :class:`~repro.sweeps.spec.SweepSpec` from the command line, runs
it through the :class:`~repro.sweeps.runner.SweepRunner` on the selected
execution backend, prints the aggregate table plus a per-backend summary
and (optionally) persists the per-run rows as resumable JSONL.
``--stream-progress`` upgrades the progress line with a cost-model ETA
and a live converged/cohesive tally.  ``--smoke`` runs a small fixed
grid with two workers — the CI sanity check that the whole pipeline
(expansion, fan-out, streaming aggregation) holds together in under half
a minute.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .backends import backend_names, make_backend
from .factories import (
    algorithm_names,
    error_model_names,
    scheduler_names,
    workload_names,
)
from .runner import SweepProgress, run_sweep
from .spec import SweepSpec


def add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the sweep-grid axes shared by ``sweep`` and the service ``submit``."""
    parser.add_argument(
        "--algorithms", nargs="+", default=["kknps"], choices=algorithm_names()
    )
    parser.add_argument(
        "--schedulers", nargs="+", default=["k-async"], choices=scheduler_names()
    )
    parser.add_argument(
        "--workloads", nargs="+", default=["random"], choices=workload_names()
    )
    parser.add_argument(
        "--n", nargs="+", type=int, default=[10], help="numbers of robots to sweep"
    )
    parser.add_argument(
        "--errors", nargs="+", default=["exact"], choices=error_model_names()
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="number of seeds per grid point"
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, help="first seed of the seed axis"
    )
    parser.add_argument("--k", type=int, default=2, help="asynchrony bound for k-schedulers")
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--max-activations", type=int, default=5000)
    parser.add_argument("--smoke", action="store_true",
                        help="run the small fixed smoke grid (overrides the axes)")


def spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """Build the sweep spec a parsed grid-argument namespace describes."""
    if args.smoke:
        return smoke_spec()
    return SweepSpec(
        algorithms=tuple(args.algorithms),
        schedulers=tuple(args.schedulers),
        workloads=tuple(args.workloads),
        n_robots=tuple(args.n),
        error_models=tuple(args.errors),
        seeds=tuple(range(args.seed_base, args.seed_base + args.seeds)),
        scheduler_k=args.k,
        epsilon=args.epsilon,
        max_activations=args.max_activations,
    )


def build_parser() -> argparse.ArgumentParser:
    """The sweep subcommand's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run a declarative parameter sweep across worker processes.",
    )
    add_grid_arguments(parser)
    parser.add_argument("--backend", choices=backend_names(), default=None,
                        help="execution backend (default: serial with 1 worker, "
                             "work-stealing otherwise)")
    parser.add_argument("--worker-token", type=str, default=None,
                        help="socket backend: auth token a worker's hello frame "
                             "must present to be admitted (spawned workers send "
                             "it automatically; pass the same --token to an "
                             "out-of-band worker_main)")
    parser.add_argument("--lost-after", type=float, default=None,
                        help="socket backend: seconds of heartbeat silence after "
                             "which a worker is declared lost and its chunk "
                             "requeued (default 10)")
    parser.add_argument("--socket-port", type=int, default=None,
                        help="socket backend: pin the coordinator's listening "
                             "port so late workers know where to join "
                             "(default: ephemeral)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default 1; 1 = serial fallback; "
                             "--smoke defaults to 2)")
    parser.add_argument("--replicate-batch", action="store_true",
                        help="bundle runs differing only by seed and advance "
                             "each bundle through one batched round pass "
                             "(round-structured planar runs only; rows stay "
                             "bit-identical to serial execution)")
    parser.add_argument("--out", type=str, default=None,
                        help="JSONL result file (resumable; one row per run)")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-run everything even if --out already has rows")
    parser.add_argument("--store", type=str, default=None,
                        help="persistent results store (sqlite): previously "
                             "computed runs are served from it instead of "
                             "re-executed, and fresh rows are ingested back")
    parser.add_argument("--no-store", action="store_true",
                        help="ignore --store: execute without consulting the "
                             "global results store")
    parser.add_argument("--quiet", action="store_true", help="suppress per-run progress")
    parser.add_argument("--stream-progress", action="store_true",
                        help="live progress with cost-model ETA and running tallies")
    return parser


def smoke_spec() -> SweepSpec:
    """The fixed grid ``--smoke`` runs: 16 tiny runs across 2 workers."""
    return SweepSpec(
        algorithms=("kknps", "ando"),
        schedulers=("ssync", "k-async"),
        workloads=("line", "blobs"),
        n_robots=(6,),
        error_models=("exact",),
        seeds=(0, 1),
        scheduler_k=1,
        epsilon=0.08,
        max_activations=250,
    )


def _format_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "ETA --"
    if eta_s >= 60:
        return f"ETA {eta_s / 60:.1f}m"
    return f"ETA {eta_s:.0f}s"


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro sweep``."""
    args = build_parser().parse_args(argv)

    progress_printed = [False]

    def progress(done: int, total: int) -> None:
        if not args.quiet and not args.stream_progress:
            progress_printed[0] = True
            print(f"\r  {done}/{total} runs", end="", file=sys.stderr, flush=True)

    def stream_progress(tick: SweepProgress) -> None:
        if args.quiet or not args.stream_progress:
            return
        progress_printed[0] = True
        # The tallies span every row of the sweep (resumed ones included),
        # so print them over the aggregate row count, not done/total —
        # which only cover the runs this invocation executes.
        tally = tick.aggregate
        print(
            f"\r  {tick.done}/{tick.total} runs "
            f"({tick.cost_fraction:6.1%} of cost, {_format_eta(tick.eta_s)}) "
            f"converged {tally['converged']}/{tally['rows']} "
            f"cohesive {tally['cohesive']}/{tally['rows']}",
            end="",
            file=sys.stderr,
            flush=True,
        )

    try:
        spec = spec_from_args(args)
        if args.workers is not None:
            workers = args.workers
        else:
            workers = 2 if args.smoke else 1
        store = None if args.no_store else args.store
        backend = args.backend
        socket_flags = (args.worker_token, args.lost_after, args.socket_port)
        if args.backend == "socket":
            socket_options = {}
            if args.worker_token is not None:
                socket_options["token"] = args.worker_token
            if args.lost_after is not None:
                socket_options["lost_after_s"] = args.lost_after
            if args.socket_port is not None:
                socket_options["port"] = args.socket_port
            backend = make_backend(
                "socket", workers=workers, socket_options=socket_options
            )
        elif any(flag is not None for flag in socket_flags):
            raise ValueError(
                "--worker-token/--lost-after/--socket-port require "
                "--backend socket"
            )
        result = run_sweep(
            spec,
            workers=workers,
            jsonl_path=args.out,
            resume=not args.no_resume,
            backend=backend,
            store=store,
            replicate_batch=args.replicate_batch,
            progress=progress,
            stream_progress=stream_progress,
        )
    except ValueError as error:
        # Bad axis values (empty/duplicate axes, zero workers, unknown
        # backend, ...) are user errors: report them like argparse would,
        # not as a traceback.
        print(f"python -m repro sweep: error: {error}", file=sys.stderr)
        return 2
    finally:
        # The progress line ends with \r-overwrites; always terminate it so
        # whatever prints next starts on a fresh line.
        if progress_printed[0]:
            print(file=sys.stderr)

    print(result.to_table().render())
    if result.stats is not None:
        print(f"\n{result.stats.summary()}")
        if result.stats.worker_losses:
            print(
                f"warning: {result.stats.worker_losses} worker(s) lost "
                f"mid-sweep; {result.stats.requeued_chunks} chunk(s) requeued "
                "and re-executed (no rows lost)",
                file=sys.stderr,
            )
    if args.out is not None:
        print(f"\n{result.executed} rows appended to {args.out} "
              f"({result.resumed} resumed)")
    if store is not None:
        print(f"{result.store_hits}/{len(result)} rows served from the "
              f"results store at {store}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
