"""Differential pin: every planar entry point agrees with the object engine.

A planar round is decided either per robot or by
:func:`repro.engine.decide_batch.decide_round_flat`, whose callers are a
single run (``Simulator.run`` with round batching on, one lane) and the
replicate engine (``run_replicated_simulations``, a group of lanes).
Hypothesis draws a bundle of one to three lanes, each with its own seed,
size, scheduler (round-structured; k-async, k-NestA or async, whose
per-activation Looks read the dense interpolation; or two whole rounds
and then plain activation lists, so a lane leaves the round path
mid-run), algorithm, error models, frames, crashes and recording
cadence.  A later lane may
copy the first lane's configuration (one multi-lane group), differ from
it in one value (a neighbouring group) or draw its own, so one bundle can
mix lane groups.  The swarm size from which a round reads the carried
visible pairs (:data:`repro.engine.spatial_index.GRID_MIN_ROBOTS`) is
drawn per bundle: 0 (every round), 12 (inside the lane sizes, so one
bundle can hold lanes on both sides of it), or past every lane's size (a
dense gather).  Every lane's result must be the same from all four entry
points:

* ``run_replicated_simulations`` over the whole bundle;
* ``Simulator.run`` with ``round_batching=True`` (the flat decide where
  eligible);
* ``Simulator.run`` with ``round_batching=False`` (the per-activation
  path);
* :class:`reference.object_engine.ObjectSimulator` (the object engine
  oracle: per-Point Looks and snapshots).

``run_replicated_simulations`` must also call each lane's factory once,
whichever path the lane takes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference.object_engine import ObjectSimulator

from repro.algorithms import AndoAlgorithm, KKNPSAlgorithm
from repro.engine import SimulationConfig, Simulator, spatial_index
from repro.engine.replicate import run_replicated_simulations
from repro.geometry.transforms import SymmetricDistortion
from repro.model.errors import MotionModel, PerceptionModel
from repro.schedulers import (
    AsyncScheduler,
    FSyncScheduler,
    KAsyncScheduler,
    KNestAScheduler,
    SSyncScheduler,
)
from repro.workloads import random_connected_configuration


class RoundsThenListsScheduler(SSyncScheduler):
    """SSync whose rounds after the second arrive as plain activation lists.

    The kernel advances the first two rounds whole and heaps every later
    activation, so a replicate lane leaves the round path mid-run.
    """

    def _after_reset(self) -> None:
        super()._after_reset()
        self._issued = 0

    def next_batch(self, view=None):
        batch = super().next_batch(view)
        self._issued += 1
        return batch if self._issued <= 2 else list(batch)


SCHEDULERS = {
    "fsync": FSyncScheduler,
    "ssync": SSyncScheduler,
    "kasync2": lambda: KAsyncScheduler(k=2),
    "knesta2": lambda: KNestAScheduler(k=2),
    "async": AsyncScheduler,
    "rounds2-lists": RoundsThenListsScheduler,
}
ALGORITHMS = {
    "kknps1": lambda: KKNPSAlgorithm(k=1),
    "kknps2": lambda: KKNPSAlgorithm(k=2),
    "ando": AndoAlgorithm,
}
PERCEPTION = {
    "exact": PerceptionModel.exact(),
    "over-5": PerceptionModel(distance_error=0.05, bias="over"),
    "under-5": PerceptionModel(distance_error=0.05, bias="under"),
    "distortion-10": PerceptionModel(
        distortion=SymmetricDistortion(amplitude=0.1, frequency=2)
    ),
    "random-5": PerceptionModel(distance_error=0.05),
}
MOTION = {
    "rigid": MotionModel.rigid(),
    "xi-50": MotionModel(xi=0.5),
    "linear-5": MotionModel(deviation="linear", coefficient=0.05),
}


#: How each lane field is drawn, given the lane's swarm size.
FIELDS = {
    "scheduler": lambda n: st.sampled_from(sorted(SCHEDULERS)),
    "algorithm": lambda n: st.sampled_from(sorted(ALGORITHMS)),
    "perception": lambda n: st.sampled_from(sorted(PERCEPTION)),
    "motion": lambda n: st.sampled_from(sorted(MOTION)),
    "use_random_frames": lambda n: st.booleans(),
    "allow_reflection": lambda n: st.booleans(),
    "crashed_robots": lambda n: st.lists(
        st.integers(0, n - 1), max_size=2, unique=True
    ).map(tuple),
    "record_every": lambda n: st.sampled_from([1, 3, 7]),
}

#: Swarm sizes from which a round reads the carried pairs: always, from
#: inside the lane sizes (3 to 24 robots), never.
THRESHOLDS = (0, 12, math.inf)


def _draw_spec(draw, n):
    return {"n": n, **{name: draw(field(n)) for name, field in FIELDS.items()}}


@st.composite
def bundles(draw):
    """One to three ``(spec, seed)`` lanes.

    Each later lane copies the first lane's spec (same group), redraws
    one field of it (a neighbouring group), or draws its own.
    """
    sizes = st.integers(min_value=3, max_value=24)
    first = _draw_spec(draw, draw(sizes))
    specs = [first]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        how = draw(st.sampled_from(["copy", "tweak", "fresh"]))
        if how == "copy":
            specs.append(first)
        elif how == "tweak":
            name = draw(st.sampled_from(["n", *FIELDS]))
            if name == "n":
                # A new size invalidates the crash ids; redraw them too.
                n = draw(sizes)
                crashed = draw(FIELDS["crashed_robots"](n))
                specs.append({**first, "n": n, "crashed_robots": crashed})
            else:
                specs.append({**first, name: draw(FIELDS[name](first["n"]))})
        else:
            specs.append(_draw_spec(draw, draw(sizes)))
    seeds = st.integers(min_value=0, max_value=2**16)
    return [(spec, draw(seeds)) for spec in specs]


def _factory(spec, seed):
    def factory():
        configuration = random_connected_configuration(spec["n"], seed=seed)
        config = SimulationConfig(
            visibility_range=configuration.visibility_range,
            perception=PERCEPTION[spec["perception"]],
            motion=MOTION[spec["motion"]],
            seed=seed,
            max_activations=60,
            stop_at_convergence=False,
            use_random_frames=spec["use_random_frames"],
            allow_reflection=spec["allow_reflection"],
            crashed_robots=spec["crashed_robots"],
            record_every=spec["record_every"],
        )
        return (
            configuration.positions,
            ALGORITHMS[spec["algorithm"]](),
            SCHEDULERS[spec["scheduler"]](),
            config,
        )

    return factory


def _run(factory, round_batching):
    positions, algorithm, scheduler, config = factory()
    config = replace(config, round_batching=round_batching)
    return Simulator(positions, algorithm, scheduler, config).run()


def _run_object(factory):
    return ObjectSimulator(*factory()).run()


def _fingerprint(result):
    return (
        result.final_positions.tobytes(),
        list(result.metrics.samples),
        list(result.records),
        result.activation_end_times,
        result.activation_counts,
    )


#: A flat-decide-eligible lane the explicit examples vary one value of.
BASE = {
    "n": 12,
    "scheduler": "ssync",
    "algorithm": "kknps1",
    "perception": "exact",
    "motion": "rigid",
    "use_random_frames": True,
    "allow_reflection": True,
    "crashed_robots": (),
    "record_every": 3,
}


class TestFlatDecideCallersAgree:
    @given(bundles(), st.sampled_from(THRESHOLDS))
    @settings(max_examples=40, deadline=None)
    # Neighbouring lane groups: each lane differs from its peers in one
    # value the flat decide reads, so a grouping that ignored it would
    # decide one lane with another's configuration.
    @example([(BASE, 1), ({**BASE, "perception": "over-5"}, 2),
              ({**BASE, "algorithm": "kknps2"}, 3)], 0)
    @example([(BASE, 4), ({**BASE, "use_random_frames": False}, 5),
              ({**BASE, "allow_reflection": False}, 6)], math.inf)
    # Two lanes at the threshold beside one below it.
    @example([(BASE, 7), (BASE, 8), ({**BASE, "n": 9}, 9)], 12)
    # A lane that leaves the round path after two rounds, grouped with a
    # lane that stays on it, next to a lane that never takes it.
    @example([({**BASE, "scheduler": "rounds2-lists"}, 10), (BASE, 11),
              ({**BASE, "scheduler": "kasync2"}, 12)], 0)
    def test_bundle_single_run_and_per_activation_agree(self, bundle, threshold):
        with mock.patch.object(spatial_index, "GRID_MIN_ROBOTS", threshold):
            factories = [_factory(spec, seed) for spec, seed in bundle]
            calls = []

            def counted(factory):
                def call():
                    calls.append(factory)
                    return factory()

                return call

            replicated = run_replicated_simulations([counted(f) for f in factories])
            assert calls == factories
            for factory, lane in zip(factories, replicated):
                expected = _fingerprint(_run_object(factory))
                assert _fingerprint(_run(factory, False)) == expected
                assert _fingerprint(_run(factory, True)) == expected
                assert _fingerprint(lane) == expected
