"""The service-facing CLI verbs: ``serve``, ``submit``, ``status``, ``results``.

``python -m repro serve`` starts the job service (HTTP JSON API backed by
a shared :class:`~repro.store.ResultsStore`); the other three verbs are
thin :class:`~repro.service.client.ServiceClient` wrappers so a shell is
a first-class service client::

    python -m repro serve --store results.sqlite --port 8642 &
    python -m repro submit --smoke --wait
    python -m repro status job-0001-ab12cd34
    python -m repro results job-0001-ab12cd34 --rows

``submit`` accepts the exact grid axes of ``python -m repro sweep``
(including ``--smoke``) — the grid is serialised as a
:meth:`SweepSpec.to_dict` payload and POSTed, never executed locally.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

from .client import DEFAULT_HOST, DEFAULT_PORT, ServiceClient, ServiceError
from .jobs import JobManager
from .server import make_server

DEFAULT_STORE = "repro-results.sqlite"
DEFAULT_JOBS_DIR = "repro-jobs"


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"service host (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"service port (default {DEFAULT_PORT})")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve the sweep job API over HTTP (JSON).",
    )
    _add_endpoint_arguments(parser)
    parser.add_argument("--store", default=DEFAULT_STORE,
                        help="sqlite results store every job runs against "
                             f"(default {DEFAULT_STORE})")
    parser.add_argument("--jobs-dir", default=DEFAULT_JOBS_DIR,
                        help="directory for per-job JSONL row files "
                             f"(default {DEFAULT_JOBS_DIR})")
    parser.add_argument("--workers", type=int, default=1,
                        help="default worker processes per job (default 1)")
    parser.add_argument("--backend", default=None,
                        help="default execution backend for jobs "
                             "(default: serial with 1 worker, work-stealing "
                             "otherwise)")
    parser.add_argument("--executors", type=int, default=1,
                        help="jobs run concurrently by the service (default 1; "
                             "overlapping grids stay exactly-once via store claims)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    return parser


def main_serve(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro serve``."""
    args = build_serve_parser().parse_args(argv)
    manager = JobManager(
        Path(args.store),
        Path(args.jobs_dir),
        workers=args.workers,
        backend=args.backend,
        executors=args.executors,
    )
    try:
        server = make_server(
            manager, host=args.host, port=args.port, verbose=args.verbose
        )
    except OSError as error:
        print(f"python -m repro serve: error: cannot bind "
              f"{args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"serving the sweep job API on http://{host}:{port} "
          f"(store: {args.store}, jobs dir: {args.jobs_dir})", flush=True)

    def _stop(signum: int, frame: object) -> None:  # pragma: no cover
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    manager.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    from ..sweeps.backends import backend_names
    from ..sweeps.cli import add_grid_arguments

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit a sweep grid to a running job service.",
    )
    add_grid_arguments(parser)
    _add_endpoint_arguments(parser)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for this job (default: the "
                             "service's own default)")
    parser.add_argument("--backend", choices=backend_names(), default=None,
                        help="execution backend for this job")
    parser.add_argument("--wait", action="store_true",
                        help="block until the job finishes, then print its status")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds (default 600)")
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON instead of human-readable lines")
    return parser


def main_submit(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro submit``."""
    from ..sweeps.cli import spec_from_args

    args = build_submit_parser().parse_args(argv)
    client = ServiceClient(args.host, args.port)
    options = {}
    if args.workers is not None:
        options["workers"] = args.workers
    if args.backend is not None:
        options["backend"] = args.backend
    try:
        spec = spec_from_args(args)
        submitted = client.submit(spec, options=options)
        job_id = str(submitted["job_id"])
        if args.wait:
            status = client.wait(job_id, timeout_s=args.timeout)
            if args.json:
                print(json.dumps(status, indent=2))
            else:
                _print_status(status)
            return 0 if status["state"] == "done" else 1
    except (ValueError, ServiceError) as error:
        print(f"python -m repro submit: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(submitted, indent=2))
    else:
        print(f"submitted {submitted['total']} runs as {job_id} "
              f"({submitted['state']})")
        print(f"poll with: python -m repro status {job_id} "
              f"--host {args.host} --port {args.port}")
    return 0


def build_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro status",
        description="Show the status of one job (or all jobs) on the service.",
    )
    parser.add_argument("job_id", nargs="?", default=None,
                        help="job id; omitted = list every job")
    _add_endpoint_arguments(parser)
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON instead of human-readable lines")
    return parser


def _print_status(status: dict) -> None:
    line = (f"{status['job_id']}: {status['state']} — "
            f"{status['done']}/{status['total']} rows")
    sources = status.get("sources") or {}
    if sources:
        origin = ", ".join(f"{count} {name}" for name, count in sorted(sources.items()))
        line += f" ({origin})"
    eta = status.get("eta_s")
    if status["state"] in ("queued", "running") and eta is not None:
        line += f", ETA {eta:.1f}s"
    if status.get("error"):
        line += f" — {status['error']}"
    print(line)


def main_status(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro status``."""
    args = build_status_parser().parse_args(argv)
    client = ServiceClient(args.host, args.port)
    try:
        if args.job_id is None:
            payload = client.jobs()
            if args.json:
                print(json.dumps(payload, indent=2))
            else:
                jobs = payload["jobs"]
                if not jobs:
                    print("no jobs submitted yet")
                for status in jobs:
                    _print_status(status)
            return 0
        status = client.status(args.job_id)
    except ServiceError as error:
        print(f"python -m repro status: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        _print_status(status)
    return 0


def build_results_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro results",
        description="Fetch a job's aggregate table (live while it runs).",
    )
    parser.add_argument("job_id", help="job id to fetch")
    _add_endpoint_arguments(parser)
    parser.add_argument("--rows", action="store_true",
                        help="include the raw per-run rows")
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON instead of the rendered table")
    return parser


def main_results(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro results``."""
    args = build_results_parser().parse_args(argv)
    client = ServiceClient(args.host, args.port)
    try:
        payload = client.results(args.job_id, include_rows=args.rows)
    except ServiceError as error:
        print(f"python -m repro results: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{payload['job_id']}: {payload['state']} — "
          f"{payload['rows_added']}/{payload['total']} rows aggregated")
    print(payload["table"])
    if args.rows:
        for row in payload["rows"]:
            print(json.dumps(row, sort_keys=True))
    return 0
