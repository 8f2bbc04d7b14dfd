"""Differential pin: a replicate group's held pairs equal a fresh enumeration every round.

:func:`repro.engine.replicate.run_replicated_simulations` gives every
flat-decide group fixed lane slots for the bundle's life (lane ``s`` owns
stacked rows ``[s * n, (s + 1) * n)``) and one
:class:`~repro.geometry.pairs.VisiblePairs` over the stack, held across
rounds: each round writes only its members' committed rows into their
slots and refreshes the held set, which re-pairs only the rows whose
bits changed (a first refresh over bit-identical lanes enumerates one
lane and tiles its keys).

Hypothesis draws one group of two to five kknps lanes: starts that are
identical or depend on the lane's seed, fsync or ssync, private frames
or none, a per-lane activation cap (a lane leaves at its cap) and a
convergence radius (lanes leave as they converge), optionally lanes
whose start holds a coincident pair (the collapse guard sends their
rounds to their own kernel step), and stacks counted as too crowded to
hold keys (``CARRY_CELL_PAIRS_PER_ROW`` patched below 0).  At every
group round:

* the group's pair set is the one it held last round;
* every member decides from the slot it had in every earlier round,
  which holds its committed rows, and the set was refreshed to the
  very stack the round decides on;
* its keys (or its crowded verdict) equal those of
  ``VisiblePairs(*rule, runs=L).refresh(stack)``, and held keys equal
  the dense oracle's (:mod:`reference.pairs`), which tiles nothing.

Every lane's result must equal ``Simulator(*factory()).run()``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.pairs import dense_directed_keys, dense_visible_pairs
from repro.algorithms import KKNPSAlgorithm
from repro.engine import SimulationConfig, Simulator
from repro.engine import replicate
from repro.geometry import pairs as pairs_module
from repro.geometry.pairs import VisiblePairs
from repro.schedulers import FSyncScheduler, SSyncScheduler
from repro.workloads import random_connected_configuration

SCHEDULERS = {"fsync": FSyncScheduler, "ssync": SSyncScheduler}


def _factory(n, start_seed, seed, cap, epsilon, coincident, scheduler, frames):
    def factory():
        configuration = random_connected_configuration(n, seed=start_seed)
        rows = np.array(configuration.positions, dtype=float)
        if coincident:
            rows[1] = rows[0]
        config = SimulationConfig(
            visibility_range=configuration.visibility_range,
            seed=seed,
            max_activations=cap,
            convergence_epsilon=epsilon,
            use_random_frames=frames,
        )
        return rows, KKNPSAlgorithm(k=1), SCHEDULERS[scheduler](), config

    return factory


@st.composite
def groups(draw):
    """The lane factories of one flat-decide group."""
    lanes = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=4, max_value=24))
    scheduler = draw(st.sampled_from(sorted(SCHEDULERS)))
    frames = draw(st.booleans())
    epsilon = draw(st.sampled_from([1e-3, 1.5, 3.0]))
    identical = draw(st.booleans())
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=lanes, max_size=lanes, unique=True))
    caps = draw(st.lists(st.integers(n, 8 * n), min_size=lanes, max_size=lanes))
    coincident = draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes))
    return [
        _factory(n, seeds[0] if identical else seed, seed, cap, epsilon, hazard, scheduler, frames)
        for seed, cap, hazard in zip(seeds, caps, coincident)
    ]


def _fingerprint(result):
    return (
        result.final_positions.tobytes(),
        list(result.metrics.samples),
        list(result.records),
        result.activation_end_times,
        result.activation_counts,
    )


class _Checked:
    """``replicate._advance_group`` that first checks the group's held pairs."""

    def __init__(self):
        self.held = {}
        self.slots = {}
        self.advance = replicate._advance_group

    def __call__(self, members, pairs, flat_xy):
        lead = members[0][0]
        assert self.held.setdefault(lead.group, pairs) is pairs
        n = lead.sim.n_robots
        stack = flat_xy.reshape(pairs.runs, n, 2)
        for lane, _, slot in members:
            assert self.slots.setdefault(id(lane.sim), slot) == slot
            assert stack[slot].tobytes() == lane.sim._arrays.position.tobytes()
        assert pairs.rows.tobytes() == flat_xy.tobytes()
        fresh = VisiblePairs(*lead.sim._pair_rule(), runs=pairs.runs).refresh(flat_xy)
        assert (pairs.grid is None) == (fresh.grid is None)
        assert pairs.keys.tobytes() == fresh.keys.tobytes()
        if pairs.grid is None:
            # The fresh set may tile too: the dense oracle does not.
            expected = dense_visible_pairs(flat_xy, lead.sim._effective_range(), pairs.runs)
            assert pairs.keys.tobytes() == dense_directed_keys(expected, len(flat_xy)).tobytes()
        return self.advance(members, pairs, flat_xy)


@settings(max_examples=40, deadline=None)
@given(groups(), st.booleans())
# Identical starts: round 1 tiles one lane's keys over four.
@example([_factory(16, 5, seed, 64, 1e-3, False, "ssync", True) for seed in (1, 2, 3, 4)], False)
# A lane leaving at its cap, a hazard lane, and a lane leaving at convergence.
@example(
    [
        _factory(12, seed, seed, cap, 1.5, seed == 2, "ssync", False)
        for seed, cap in ((1, 12), (2, 96), (3, 96))
    ],
    False,
)
@example([_factory(10, 7, seed, 40, 1e-3, False, "fsync", True) for seed in (1, 2)], True)
def test_held_group_pairs_equal_a_fresh_enumeration(factories, crowded):
    bound = -1 if crowded else pairs_module.CARRY_CELL_PAIRS_PER_ROW
    checked = _Checked()
    with mock.patch.object(pairs_module, "CARRY_CELL_PAIRS_PER_ROW", bound), \
            mock.patch.object(replicate, "_advance_group", checked):
        results = replicate.run_replicated_simulations(factories)
    for factory, result in zip(factories, results):
        assert _fingerprint(result) == _fingerprint(Simulator(*factory()).run())
