"""Property suite: the carried visible-pair set equals a dense enumeration.

:class:`repro.geometry.pairs.VisiblePairs` keeps the pairs a Look keeps
from round to round and re-pairs only the rows whose bits changed.  The
drawn refresh sequences aim at what could leave it stale or wrong: no
change, a few rows nudged within a cell or moved across cells, a row
moved onto another, pairs placed at the range boundary ``V + EPS``
within 3 ulps, every row changed, every row but a crashed few changed,
a coordinate flipped to ``-0.0``, the row count changed, coordinates
offset by 1e9 and 1e12, and 3D rows under the 3D Look.  Each refresh
holds keys, or is made to count the swarm as too crowded to hold them
(``CARRY_CELL_PAIRS_PER_ROW`` patched below zero), so each chunk
enumerates its owners' pairs; a sequence may switch between the two at
any refresh.  After every refresh a held set's key array must be
strictly ascending and byte-equal to the dense directed oracle
(:func:`reference.pairs.dense_directed_keys`: both ends of every pair of
:func:`reference.pairs.dense_visible_pairs`), a crowded one must hold
no keys, and every robot's chunked rows, at any budget and for owners
in any order, must be its visible ids in ascending order.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.pairs import dense_directed_keys, dense_neighbours, dense_visible_pairs
from repro.geometry import pairs as pairs_module
from repro.geometry.pairs import VisiblePairs
from repro.geometry.tolerances import EPS
from repro.model.snapshot import visible_mask
from repro.spatial3d.engine3 import VIS_EPS, visible_mask3

STEPS = ("none", "nudge", "jump", "onto", "boundary", "all", "crash", "negzero", "resize")


def _pair_set(dim: int, visibility_range: float, runs: int = 1) -> VisiblePairs:
    """A pair set under the front end's own Look, as the kernels build it."""
    if dim == 2:
        return VisiblePairs(
            visibility_range + EPS,
            lambda dx, dy: visible_mask(dx, dy, visibility_range),
            runs=runs,
        )
    return VisiblePairs(
        visibility_range + VIS_EPS,
        lambda dx, dy, dz: visible_mask3(dx, dy, dz, visibility_range),
        runs=runs,
    )


def _chunked(pairs: VisiblePairs, owners: np.ndarray, budget: int) -> dict:
    """Each owner's ids as :meth:`VisiblePairs.chunks` yields them, checking the chunks."""
    out = {}
    following = 0
    for lo, hi, ids, counts in pairs.chunks(owners, budget):
        assert lo == following and hi > lo and len(counts) == hi - lo
        assert counts.sum() == len(ids) and (len(ids) <= budget or hi - lo == 1)
        start = 0
        for owner, count in zip(owners[lo:hi].tolist(), counts.tolist()):
            out[owner] = ids[start : start + count].tolist()
            start += count
        following = hi
    assert following == len(owners)
    return out


def _check(
    pairs: VisiblePairs,
    rows: np.ndarray,
    visibility_range: float,
    runs: int = 1,
    budget: int = 3,
):
    expected = dense_visible_pairs(rows, visibility_range, runs)
    if pairs.grid is None:
        assert pairs.keys.dtype == np.int64
        assert np.all(np.diff(pairs.keys) > 0)
        assert pairs.keys.tobytes() == dense_directed_keys(expected, len(rows)).tobytes()
    else:
        assert not len(pairs.keys)
    owners = np.arange(len(rows))[::-1]
    seen = _chunked(pairs, owners, budget)
    for owner in owners.tolist():
        assert seen[owner] == dense_neighbours(expected, owner)


def _crowded(crowded: bool):
    """Make every pair set count as too crowded to hold keys, or keep the bound."""
    bound = -1 if crowded else pairs_module.CARRY_CELL_PAIRS_PER_ROW
    return mock.patch.object(pairs_module, "CARRY_CELL_PAIRS_PER_ROW", bound)


def _step(draw, rows: np.ndarray, kind: str, limit: float) -> np.ndarray:
    """The rows after one drawn change of ``kind``."""
    rows = rows.copy()
    n, dim = rows.shape
    if kind == "none" or (n == 0 and kind != "resize"):
        return rows
    index = st.integers(min_value=0, max_value=n - 1) if n else None
    if kind == "nudge":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            a = draw(index)
            rows[a, draw(st.integers(0, dim - 1))] += draw(st.sampled_from([1e-3, -1e-3, 1e-9]))
    elif kind == "jump":
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            rows[draw(index)] += np.array(
                [draw(st.floats(min_value=-3.0, max_value=3.0)) for _ in range(dim)]
            )
    elif kind == "onto":
        rows[draw(index)] = rows[draw(index)]
    elif kind == "boundary":
        a, b = draw(index), draw(index)
        if a != b:
            gap = limit
            ulps = draw(st.integers(min_value=-3, max_value=3))
            for _ in range(abs(ulps)):
                gap = np.nextafter(gap, np.inf if ulps > 0 else -np.inf)
            rows[a] = rows[b]
            rows[a, draw(st.integers(0, dim - 1))] += gap
    elif kind == "all":
        rows += draw(st.sampled_from([1e-9, 0.3, -1.7]))
    elif kind == "crash":
        crashed = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 3)))
        live = np.setdiff1d(np.arange(n), sorted(crashed))
        rows[live] += draw(st.sampled_from([0.05, -0.8]))
    elif kind == "negzero":
        a = draw(index)
        axis = draw(st.integers(0, dim - 1))
        # +0.0 becomes -0.0 and anything else +0.0: a bit change at equal value.
        zero = rows[a, axis] == 0.0 and not np.signbit(rows[a, axis])
        rows[a, axis] = -0.0 if zero else 0.0
    elif kind == "resize":
        if n and draw(st.booleans()):
            rows = rows[:-1]
        else:
            rows = np.vstack((rows, rows[-1:] + 0.5 if n else np.zeros((1, dim))))
    return rows


@st.composite
def refresh_sequences(draw):
    """``(dim, V, rows after each refresh)`` for one drawn sequence."""
    dim = draw(st.sampled_from([2, 3]))
    visibility_range = draw(st.sampled_from([1.0, 0.6]))
    limit = visibility_range + (EPS if dim == 2 else VIS_EPS)
    offset = draw(st.sampled_from([0.0, 1e9, -1e9, 1e12]))
    n = draw(st.integers(min_value=0, max_value=18))
    extent = draw(st.sampled_from([0.5, 2.5, 6.0]))
    rows = offset + np.array(
        [
            [draw(st.floats(min_value=-extent, max_value=extent)) for _ in range(dim)]
            for _ in range(n)
        ],
        dtype=float,
    ).reshape(n, dim)
    sequence = [rows]
    for kind in draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=6)):
        sequence.append(_step(draw, sequence[-1], kind, limit))
    return dim, visibility_range, sequence


@settings(max_examples=150, deadline=None)
@given(refresh_sequences(), st.integers(0, 2**7 - 1), st.sampled_from([1, 4, 1 << 17]))
def test_every_refresh_equals_the_dense_oracle(drawn, crowded_steps, budget):
    """Bit ``k`` of ``crowded_steps`` makes refresh ``k`` count the swarm as crowded."""
    dim, visibility_range, sequence = drawn
    pairs = _pair_set(dim, visibility_range)
    for step, rows in enumerate(sequence):
        with _crowded(bool(crowded_steps >> step & 1)):
            assert pairs.refresh(rows) is pairs
        _check(pairs, rows, visibility_range, budget=budget)


@settings(max_examples=40, deadline=None)
@given(refresh_sequences(), st.integers(min_value=2, max_value=3), st.booleans())
def test_replicate_pairs_equal_the_dense_oracle_per_run(drawn, runs, crowded):
    """Stacked replicates pair within their own run only."""
    dim, visibility_range, sequence = drawn
    with _crowded(crowded):
        for rows in sequence:
            # Run 0 and 2 coincide byte for byte; run 1 sits a quarter away.
            stacked = np.concatenate([rows + 0.25 * (run % 2) for run in range(runs)])
            pairs = _pair_set(dim, visibility_range, runs=runs).refresh(stacked)
            _check(pairs, stacked, visibility_range, runs)


def test_unchanged_rows_build_no_grid(monkeypatch):
    """A refresh without a changed bit keeps the held keys and bins nothing."""
    from repro.geometry import pairs as pairs_module

    rng = np.random.default_rng(3)
    rows = rng.uniform(-3.0, 3.0, size=(50, 2))
    pairs = _pair_set(2, 1.0).refresh(rows)
    keys = pairs.keys

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built for unchanged rows")

    monkeypatch.setattr(pairs_module.ShardedGridIndex, "__init__", refuse)
    assert pairs.refresh(rows.copy()).keys is keys
