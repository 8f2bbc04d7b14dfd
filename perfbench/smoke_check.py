"""Self-test of the benchmark at smoke size: every workload, traced and untraced.

From the repository root::

    python3 perfbench/smoke_check.py

Runs ``run.py --smoke`` for each workload with ``--trace 0`` and
``--trace 1`` and checks the contract of its last output line: exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; every metric
``BENCHMARK.json`` lists for that mode, with its unit; all checks passed.
It prints every metric name with its unit.  Finally it copies only
``BENCHMARK.json`` and the benchmark's files into an empty directory and
checks that the benchmark fails there without printing a result.
Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-1500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks failed\n{done.stderr[-1500:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            print(label)
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")

    bench_dir = ROOT / ".perfbench"
    bench_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=bench_dir))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("bare directory: the benchmark did not fail")
        else:
            print(f"bare directory: exit {done.returncode}, no result (as required)")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print("smoke check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
