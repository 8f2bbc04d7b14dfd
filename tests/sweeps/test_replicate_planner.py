"""Tests for replicate-bundle planning and batched sweep execution.

The planner folds seed-replicates into bundles; the executor must hand
back rows that match serial execution field-for-field outside
:data:`~repro.sweeps.runner.TIMING_FIELDS`, so the JSONL file, sqlite
store and aggregator never notice batching happened.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sweeps import RunSpec, SweepSpec, execute_run, run_sweep, strip_timing
from repro.sweeps.replicate import (
    MAX_BUNDLE,
    ReplicateBundle,
    bundle_eligible,
    execute_bundle,
    execute_work_item,
    plan_replicate_bundles,
)


def _spec(seed=0, **overrides):
    base = dict(
        algorithm="kknps",
        scheduler="ssync",
        workload="line",
        n_robots=5,
        error_model="exact",
        seed=seed,
        scheduler_k=2,
        epsilon=0.08,
        max_activations=60,
    )
    base.update(overrides)
    return RunSpec(**base)


REPLICATED_SPEC = SweepSpec(
    algorithms=("kknps",),
    schedulers=("ssync",),
    workloads=("line",),
    n_robots=(5,),
    seeds=(0, 1, 2, 3),
    scheduler_k=2,
    epsilon=0.08,
    max_activations=60,
)


class TestPlanner:
    def test_seed_replicates_fold_into_one_bundle(self):
        specs = [_spec(seed=s) for s in range(4)]
        items = plan_replicate_bundles(specs)
        assert len(items) == 1
        (bundle,) = items
        assert isinstance(bundle, ReplicateBundle)
        assert [m.seed for m in bundle.members] == [0, 1, 2, 3]

    def test_non_seed_field_differences_split_groups(self):
        specs = [
            _spec(seed=0),
            _spec(seed=1),
            _spec(seed=0, n_robots=7),
            _spec(seed=1, n_robots=7),
        ]
        items = plan_replicate_bundles(specs)
        assert len(items) == 2
        assert all(isinstance(item, ReplicateBundle) for item in items)
        assert {item.members[0].n_robots for item in items} == {5, 7}

    def test_continuous_time_schedulers_declined(self):
        specs = [_spec(seed=s, scheduler="k-async") for s in range(3)]
        assert not any(bundle_eligible(s) for s in specs)
        items = plan_replicate_bundles(specs)
        assert items == specs

    def test_singleton_groups_stay_plain_specs(self):
        lone = _spec(seed=0)
        items = plan_replicate_bundles([lone])
        assert items == [lone]

    def test_bundle_sits_at_first_member_slot(self):
        """Expansion order survives planning: bundles replace their head."""
        other = _spec(seed=0, scheduler="k-async")
        specs = [_spec(seed=0), other, _spec(seed=1)]
        items = plan_replicate_bundles(specs)
        assert isinstance(items[0], ReplicateBundle)
        assert items[1] is other

    def test_long_seed_axes_chunk_at_max_bundle(self):
        specs = [_spec(seed=s) for s in range(MAX_BUNDLE + 3)]
        items = plan_replicate_bundles(specs)
        assert [len(item) for item in items] == [MAX_BUNDLE, 3]

    def test_chunk_remainder_of_one_stays_plain(self):
        specs = [_spec(seed=s) for s in range(5)]
        items = plan_replicate_bundles(specs, max_bundle=4)
        assert len(items) == 2
        assert len(items[0]) == 4
        assert items[1] == specs[4]

    def test_bundle_needs_two_members(self):
        with pytest.raises(ValueError):
            ReplicateBundle((_spec(seed=0),))

    def test_cost_hint_bills_replicate_rate(self):
        bundle = ReplicateBundle(tuple(_spec(seed=s) for s in range(3)))
        member_rate = _spec().cost_hint(cost_class="2d-replicate")
        assert bundle.cost_hint() == pytest.approx(3 * member_rate)
        assert bundle.cost_hint() < sum(_spec(seed=s).cost_hint() for s in range(3))


class TestExecuteBundle:
    def test_rows_match_serial_outside_timing(self):
        specs = [_spec(seed=s) for s in range(3)]
        rows = execute_bundle(ReplicateBundle(tuple(specs)))
        assert [row["run_key"] for row in rows] == [s.run_key for s in specs]
        for spec, row in zip(specs, rows):
            assert strip_timing(row) == strip_timing(execute_run(spec))

    def test_rows_carry_provenance_marker(self):
        specs = [_spec(seed=s) for s in range(3)]
        rows = execute_bundle(ReplicateBundle(tuple(specs)))
        assert all(row["batched_replicates"] == 3 for row in rows)
        assert "batched_replicates" not in execute_run(specs[0])

    def test_work_item_dispatch(self):
        lone = _spec(seed=0)
        assert execute_work_item(lone)["run_key"] == lone.run_key
        bundle = ReplicateBundle(tuple(_spec(seed=s) for s in range(2)))
        rows = execute_work_item(bundle)
        assert [row["seed"] for row in rows] == [0, 1]


class TestSweepIntegration:
    def test_batched_sweep_equals_serial_sweep(self):
        serial = run_sweep(REPLICATED_SPEC, resume=False)
        batched = run_sweep(REPLICATED_SPEC, resume=False, replicate_batch=True)
        assert [strip_timing(row) for row in batched.rows] == [
            strip_timing(row) for row in serial.rows
        ]

    def test_mixed_grid_bundles_only_the_eligible(self):
        spec = dataclasses.replace(REPLICATED_SPEC, schedulers=("ssync", "k-async"))
        serial = run_sweep(spec, resume=False)
        batched = run_sweep(spec, resume=False, replicate_batch=True)
        assert [strip_timing(row) for row in batched.rows] == [
            strip_timing(row) for row in serial.rows
        ]
        by_scheduler = {
            row["scheduler"]: row.get("batched_replicates") for row in batched.rows
        }
        assert by_scheduler["ssync"] == 4
        assert by_scheduler["k-async"] is None

    def test_store_dedup_serves_bundle_partially_from_cache(self, tmp_path):
        """Cached seeds become store hits; the rest still bundle."""
        store = tmp_path / "results.sqlite"
        warm = dataclasses.replace(REPLICATED_SPEC, seeds=(1, 2))
        warm_rows = run_sweep(warm, resume=False, store=store).rows
        result = run_sweep(
            REPLICATED_SPEC, resume=False, store=store, replicate_batch=True
        )
        rows = {row["seed"]: row for row in result.rows}
        assert sorted(rows) == [0, 1, 2, 3]
        # Seeds 1 and 2 came from the store (serial rows, no marker);
        # seeds 0 and 3 were left over and ran as a two-member bundle.
        for row in warm_rows:
            assert strip_timing(rows[row["seed"]]) == strip_timing(row)
        assert rows[1].get("batched_replicates") is None
        assert rows[2].get("batched_replicates") is None
        assert rows[0]["batched_replicates"] == 2
        assert rows[3]["batched_replicates"] == 2
        # And the batched rows equal what serial execution would produce.
        for seed in (0, 3):
            spec = next(
                s for s in REPLICATED_SPEC.expand() if s.seed == seed
            )
            assert strip_timing(rows[seed]) == strip_timing(execute_run(spec))

    def test_store_dedup_can_absorb_the_whole_bundle(self, tmp_path):
        store = tmp_path / "results.sqlite"
        run_sweep(REPLICATED_SPEC, resume=False, store=store)
        result = run_sweep(
            REPLICATED_SPEC, resume=False, store=store, replicate_batch=True
        )
        assert all(row.get("batched_replicates") is None for row in result.rows)

    def test_default_multi_worker_backend_executes_bundles(self):
        batched = run_sweep(
            REPLICATED_SPEC, resume=False, replicate_batch=True, workers=2
        )
        serial = run_sweep(REPLICATED_SPEC, resume=False)
        assert [strip_timing(row) for row in batched.rows] == [
            strip_timing(row) for row in serial.rows
        ]
        assert any(row.get("batched_replicates") for row in batched.rows)
