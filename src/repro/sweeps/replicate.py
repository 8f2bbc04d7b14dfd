"""Replicate-bundle planning and batched execution for the sweep runner.

The sweep grid's seed axis produces runs that differ *only* by seed: the
same workload family, algorithm, scheduler, error model and budgets.
:func:`plan_replicate_bundles` folds such seed-replicates into
:class:`ReplicateBundle` work items which
:func:`execute_bundle` advances together through the replicate-batched
engine (:mod:`repro.engine.replicate`) — one committed tensor, one grid,
one decide pass per round — and then splits back into the *same* per-run
rows serial execution produces (identical ``run_key``s, identical fields
up to :data:`~repro.sweeps.runner.TIMING_FIELDS`).  The sqlite store and
the streaming aggregator never see a bundle, only rows.  Each member is
set up once (:func:`~repro.sweeps.runner.planar_setup`) and runs as a
lane of the kernel's own steps; a member whose scheduler leaves the
round path finishes through its own kernel loop.

Bundling is declined (the spec stays a singleton work item) when:

* the specs are not seed-replicates of each other — any non-seed field
  differs;
* the scheduler is not round-structured (``fsync``/``ssync``): the
  batched path advances lanes one round (a
  :class:`~repro.model.types.RoundBatch`) at a time, which
  continuous-time schedulers do not produce;
* the spec resolves to the 3D registries (the 3D engines have no
  replicate tier yet);
* fewer than two eligible replicates remain after store dedup — a bundle
  of one is just overhead.

Correctness never depends on the planner's choices: a declined spec runs
through :func:`~repro.sweeps.runner.execute_run` unchanged, and a bundled
spec produces bit-identical rows by construction (each lane owns its own
RNG stream; see the engine module's contract).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .factories import run_dimension
from .spec import RunSpec

#: Planar schedulers whose activation streams arrive as whole rounds —
#: the structure the batched executor advances lanes by.
ROUND_SCHEDULERS = ("fsync", "ssync")

#: Largest bundle the planner emits.  Beyond this the per-round tensor
#: stops fitting nicely in cache and a single work item grows too coarse
#: for work-stealing to balance; long seed axes split into chunks.
MAX_BUNDLE = 32


@dataclass(frozen=True)
class ReplicateBundle:
    """A backend work item bundling seed-replicates of one run family."""

    members: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a replicate bundle needs at least two members")

    @property
    def run_key(self) -> str:
        """A stable display/ordering key (never used for row identity)."""
        first = self.members[0]
        seeds = ",".join(str(m.seed) for m in self.members)
        return f"bundle[{first.with_seed(0).run_key}::seeds={seeds}]"

    def cost_hint(self) -> float:
        """Estimated batched cost: members billed at the replicate rate."""
        return sum(m.cost_hint(cost_class="2d-replicate") for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


#: What a backend executes: a plain spec or a bundle of seed-replicates.
WorkItem = Union[RunSpec, ReplicateBundle]


def bundle_eligible(spec: RunSpec) -> bool:
    """Whether this spec may join a replicate bundle at all."""
    if spec.scheduler not in ROUND_SCHEDULERS:
        return False
    try:
        dimension = run_dimension(
            spec.algorithm, spec.scheduler, spec.workload, spec.error_model
        )
    except ValueError:
        return False
    return dimension == 2


def plan_replicate_bundles(
    specs: Sequence[RunSpec], *, max_bundle: int = MAX_BUNDLE
) -> List[WorkItem]:
    """Fold seed-replicates among ``specs`` into bundles.

    Grouping key: the spec with its seed normalised away — two specs
    bundle iff *every* other field matches.  The returned work-item list
    preserves expansion order (a bundle sits where its first member sat),
    so ordered backends still stream rows in a deterministic order.
    """
    if max_bundle < 2:
        raise ValueError("max_bundle must be at least 2")
    slots: List[Union[RunSpec, List[RunSpec]]] = []
    groups: Dict[RunSpec, List[RunSpec]] = {}
    for spec in specs:
        if not bundle_eligible(spec):
            slots.append(spec)
            continue
        key = dataclasses.replace(spec, seed=0)
        bucket = groups.get(key)
        if bucket is None:
            bucket = []
            groups[key] = bucket
            slots.append(bucket)
        bucket.append(spec)
    items: List[WorkItem] = []
    for slot in slots:
        if isinstance(slot, RunSpec):
            items.append(slot)
            continue
        if len(slot) < 2:
            items.append(slot[0])
            continue
        for start in range(0, len(slot), max_bundle):
            chunk = slot[start : start + max_bundle]
            if len(chunk) >= 2:
                items.append(ReplicateBundle(tuple(chunk)))
            else:
                items.append(chunk[0])
    return items


def execute_bundle(bundle: ReplicateBundle) -> List[Dict[str, object]]:
    """Execute every member of a bundle batched; return per-member rows.

    Row ``i`` is the row ``execute_run(bundle.members[i])`` would produce,
    bit-identical outside :data:`~repro.sweeps.runner.TIMING_FIELDS`.
    """
    from ..engine.replicate import run_replicated_simulations
    from .runner import planar_row, planar_setup

    lanes = []
    for spec in bundle.members:
        configuration, algorithm, scheduler, config = planar_setup(spec)
        lanes.append((configuration.positions, algorithm, scheduler, config))
    results = run_replicated_simulations([lambda lane=lane: lane for lane in lanes])
    rows = [
        planar_row(spec, result, result.wall_time_seconds)
        for spec, result in zip(bundle.members, results)
    ]
    # Provenance marker (a TIMING_FIELDS member, so row comparisons still
    # match serial rows): lanes run interleaved, so each row's wall time
    # spans nearly the whole bundle — the cost-hint calibrator divides by
    # this to recover the marginal per-member cost.
    for row in rows:
        row["batched_replicates"] = len(bundle)
    return rows


def execute_work_item(item: WorkItem):
    """Backend dispatcher: a spec yields one row, a bundle a list of rows."""
    if isinstance(item, ReplicateBundle):
        return execute_bundle(item)
    from .runner import execute_run

    return execute_run(item)
