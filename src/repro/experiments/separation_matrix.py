"""Experiment T1 — the headline separation matrix (Theorems 3-4 vs Section 7 / Figure 4).

The paper's main message is a *separation*: with bounded asynchrony
(k-Async, any fixed k) Cohesive Convergence is solvable — by the paper's
algorithm — while with unbounded asynchrony it is not, and the classical
algorithms already fail at very low levels of asynchrony.  This experiment
assembles that message into a single success matrix:

* rows: algorithm (KKNPS at matching k, KKNPS at k=1 run beyond its bound,
  Ando et al., Katreniak);
* columns: scheduler (SSync, 1-Async, k-Async, k-NestA, plus the scripted
  Figure-4 adversary and the Section-7 spiral adversary where applicable);
* cells: did the run preserve every initial visibility edge, and did it
  converge?

Random schedulers cannot certify impossibility, so the adversarial columns
carry the constructive failures (Figure 4 for Ando, Section 7 for any
error-tolerant algorithm), while the stochastic columns show the positive
side of the separation.

The stochastic cells are expressed through the sweep engine
(:mod:`repro.sweeps`): every (algorithm, scheduler, seed) cell entry is a
:class:`~repro.sweeps.RunSpec`, aliased entries (e.g. KKNPS at matched k
and at fixed k=1 under SSync, which are the same run) are deduplicated by
run key, and ``workers > 1`` fans the whole matrix out across processes
with results identical to the serial run.  The adversarial columns replay
scripted timelines and stay outside the sweep engine by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..adversary.ando_counterexample import (
    canonical_instance,
    one_async_schedule,
    replay,
    two_nesta_schedule,
)
from ..algorithms.ando import AndoAlgorithm
from ..algorithms.kknps import KKNPSAlgorithm
from ..analysis.tables import TextTable
from ..sweeps import RunSpec, SweepRunner


@dataclass(frozen=True)
class MatrixCell:
    """One algorithm/scheduler cell of the separation matrix."""

    algorithm: str
    scheduler: str
    runs: int
    cohesion_preserved: int
    converged: int
    worst_final_diameter: float

    @property
    def always_cohesive(self) -> bool:
        return self.cohesion_preserved == self.runs

    @property
    def always_converged(self) -> bool:
        return self.converged == self.runs


@dataclass
class SeparationMatrixResult:
    """All cells of the separation matrix."""

    cells: List[MatrixCell] = field(default_factory=list)

    def to_table(self) -> TextTable:
        table = TextTable(
            "Separation matrix — cohesion / convergence per algorithm and scheduler",
            [
                "algorithm",
                "scheduler",
                "runs",
                "cohesive",
                "converged",
                "worst final diameter",
            ],
        )
        for cell in self.cells:
            table.add_row(
                cell.algorithm,
                cell.scheduler,
                cell.runs,
                f"{cell.cohesion_preserved}/{cell.runs}",
                f"{cell.converged}/{cell.runs}",
                cell.worst_final_diameter,
            )
        return table

    def cell(self, algorithm: str, scheduler: str) -> Optional[MatrixCell]:
        """Look up one cell by its labels."""
        for cell in self.cells:
            if cell.algorithm == algorithm and cell.scheduler == scheduler:
                return cell
        return None


def _cell_from_rows(
    algorithm_label: str, scheduler_label: str, rows: List[Dict[str, object]]
) -> MatrixCell:
    """Aggregate the sweep rows of one cell into its matrix entry."""
    return MatrixCell(
        algorithm=algorithm_label,
        scheduler=scheduler_label,
        runs=len(rows),
        cohesion_preserved=sum(1 for r in rows if r["cohesion"]),
        converged=sum(1 for r in rows if r["converged"]),
        worst_final_diameter=max(r["final_diameter"] for r in rows),
    )


def run(
    *,
    n_robots: int = 10,
    runs_per_cell: int = 3,
    max_activations: int = 6000,
    epsilon: float = 0.05,
    k: int = 4,
    seed: int = 0,
    workers: int = 1,
    backend: Optional[str] = None,
) -> SeparationMatrixResult:
    """Build the separation matrix.

    The stochastic columns use ``runs_per_cell`` random connected
    configurations of ``n_robots`` robots each; the adversarial columns
    replay the Figure-4 construction.  ``workers > 1`` fans the stochastic
    runs out across worker processes via the sweep engine (the
    work-stealing backend).
    """
    result = SeparationMatrixResult()

    stochastic_columns = [
        ("ssync", "ssync", 1, None),
        ("1-async", "k-async", 1, 1),
        (f"{k}-async", "k-async", k, k),
        (f"{k}-nesta", "k-nesta", k, k),
    ]
    algorithm_rows: List[Tuple[str, Callable[[Optional[int]], Tuple[Tuple[str, float], ...]]]] = [
        ("kknps(k matched)", lambda k_bound: (("k", k_bound or 1),)),
        ("kknps(k=1 fixed)", lambda k_bound: (("k", 1),)),
        ("ando", lambda k_bound: ()),
        ("katreniak", lambda k_bound: ()),
    ]

    # One run spec per (algorithm row, scheduler column, seed) cell entry.
    # Aliased entries (same spec reached from different cells, e.g. both
    # KKNPS rows under SSync) share a run key and execute only once.
    cell_keys: List[Tuple[str, str, List[str]]] = []
    unique: Dict[str, RunSpec] = {}
    for algorithm_label, params_for in algorithm_rows:
        algorithm = "kknps" if algorithm_label.startswith("kknps") else algorithm_label
        for scheduler_label, scheduler, scheduler_k, k_bound in stochastic_columns:
            keys: List[str] = []
            for run_index in range(runs_per_cell):
                spec = RunSpec(
                    algorithm=algorithm,
                    scheduler=scheduler,
                    workload="random",
                    n_robots=n_robots,
                    seed=seed + run_index,
                    scheduler_k=scheduler_k,
                    algorithm_params=params_for(k_bound),
                    k_bound=k_bound,
                    epsilon=epsilon,
                    max_activations=max_activations,
                )
                unique.setdefault(spec.run_key, spec)
                keys.append(spec.run_key)
            cell_keys.append((algorithm_label, scheduler_label, keys))

    sweep = SweepRunner(list(unique.values()), workers=workers, backend=backend).run()
    rows_by_key = {row["run_key"]: row for row in sweep.rows}
    for algorithm_label, scheduler_label, keys in cell_keys:
        result.cells.append(
            _cell_from_rows(
                algorithm_label, scheduler_label, [rows_by_key[key] for key in keys]
            )
        )

    # Adversarial columns: the scripted Figure-4 timelines.
    instance = canonical_instance()
    for schedule_name, schedule in (
        ("fig4 1-async adversary", one_async_schedule()),
        ("fig4 2-nesta adversary", two_nesta_schedule()),
    ):
        for algorithm_label, algorithm in (
            ("ando", AndoAlgorithm()),
            ("kknps(k matched)", KKNPSAlgorithm(k=1 if "1-async" in schedule_name else 2)),
        ):
            outcome = replay(instance, schedule, algorithm=algorithm, schedule_name=schedule_name)
            result.cells.append(
                MatrixCell(
                    algorithm=algorithm_label,
                    scheduler=schedule_name,
                    runs=1,
                    cohesion_preserved=0 if outcome.visibility_broken else 1,
                    converged=0,
                    worst_final_diameter=outcome.result.final_hull_diameter,
                )
            )
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    print(run().to_table().render())


if __name__ == "__main__":  # pragma: no cover
    main()
