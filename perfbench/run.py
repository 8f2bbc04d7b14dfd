"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload round_mega --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed amount of the workload untraced and then traced, and reports
the per-layer metrics (calls and self time per layer, ratios, tracer
coverage and overhead).  ``--smoke`` shrinks every workload to a size that
finishes in seconds.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table with the host fingerprint, sample
counts and an output digest.  The full result (and, when traced, every
span) is also written under ``.perfbench/results/`` in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench"

if not (SOURCE / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {SOURCE / 'repro'}; run from a full checkout")
sys.path.insert(0, str(SOURCE))

import numpy as np  # noqa: E402

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, median, tail  # noqa: E402

#: End-to-end metrics, measured with tracing off: ``name -> unit``.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "activations_per_s": "act/s",
    "runs_per_s": "runs/s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "peak_rss_mb": "MB",
}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """HEAD of the checkout's own ``.git`` directory, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of every program source file, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally) -> tuple:
    """``(metrics, sample counts)`` of an untraced tally."""
    act_rates = [a / s for a, s in zip(tally.unit_activations, tally.unit_s) if s > 0]
    run_rates = [r / s for r, s in zip(tally.unit_runs, tally.unit_s) if s > 0]
    metrics = {
        "setup_s": median(tally.setup_s),
        "wall_s": median(tally.unit_s),
        "activations_per_s": median(act_rates),
        "runs_per_s": median(run_rates),
        "run_s_p50": median(tally.request_s),
        "run_s_tail": tail(tally.request_s),
        "peak_rss_mb": _peak_rss_mb(),
    }
    n_requests = len(tally.request_s)
    above = min(10, max(1, n_requests // 4))
    tail_note = f"{above} above, p{100.0 * (1.0 - above / max(1, n_requests)):.0f}"
    counts = {
        "setup_s": f"{len(tally.setup_s)} set-ups, median",
        "wall_s": f"{len(tally.unit_s)} units, median",
        "activations_per_s": f"{len(act_rates)} units, median",
        "runs_per_s": f"{len(run_rates)} units, median",
        "run_s_p50": f"{n_requests} requests, median",
        "run_s_tail": f"{n_requests} requests, {tail_note}",
        "peak_rss_mb": "process peak",
    }
    return metrics, counts


def per_layer(outcome) -> tuple:
    """``(metrics, notes)`` of a traced comparison run."""
    warm, plain = outcome["warm"], outcome["plain"]
    traced, tracer = outcome["traced"], outcome["tracer"]
    timings = plain.service
    resubmit_s = timings.get("resubmit_s", [])
    service = {
        "service.resubmit_s_p50": median(resubmit_s),
        "service.cached_rows_per_s": (
            sum(timings["rows"]) / sum(resubmit_s) if resubmit_s else 0.0
        ),
        "service.queue_wait_s": median(timings.get("queue_wait_s", [])),
        "service.exec_s": median(timings.get("exec_s", [])),
        "service.observe_lag_s": median(timings.get("observe_lag_s", [])),
    }
    metrics = tracer.layer_metrics(service)
    covered = tracer.top_level_seconds()
    metrics["unattributed_share"] = (
        (traced.timed_s - covered) / traced.timed_s if traced.timed_s else 0.0
    )
    # The untraced repeats before and after bracket the traced one, which
    # cancels a steady drift in host speed.
    untraced_s = (warm.timed_s + plain.timed_s) / 2.0
    metrics["trace_overhead_ratio"] = traced.timed_s / untraced_s if untraced_s else 0.0
    metrics = {name: metrics[name] for name in LAYER_METRICS}
    notes = {name: LAYER_METRICS[name][2] for name in LAYER_METRICS}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    info = provenance(args)
    OUTPUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch)
        if args.trace:
            outcome = workload.traced()
            tallies = [outcome["warm"], outcome["traced"], outcome["plain"]]
            metrics, notes = per_layer(outcome)
            units = {name: LAYER_METRICS[name][0] for name in metrics}
        else:
            tally = workload.measure(args.seconds)
            tallies = [tally]
            metrics, notes = end_to_end(tally)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    # Every run completes at least two units, so the digest covers the
    # first two whatever the host's speed.
    digested = tallies[0].digests[:2]
    digest = hashlib.sha256("".join(digested).encode("utf-8")).hexdigest()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("provenance " + json.dumps(info, sort_keys=True))
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]:<7} {notes[name]}")
    print(f"output digest {digest} over the first {len(digested)} units")
    print(f"checks {attempted - len(failures)}/{attempted} passed")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    results_dir = OUTPUT / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "provenance": info, "notes": notes, "digest": digest,
              "failures": failures}
    record["samples"] = {
        key: getattr(tallies[-1], key)
        for key in ("setup_s", "unit_s", "unit_activations", "unit_runs", "request_s")
    }
    if args.trace:
        tracer = outcome["tracer"]
        record["spans_summary"] = tracer.summary()
        record["counters"] = dict(tracer.counters)
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
