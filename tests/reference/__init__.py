"""Reference implementations the engine is pinned against.

Each module here keeps a slow, per-object form of something ``src/``
computes on arrays, so tests can demand bit-identical results from the
two and benchmarks can time the array engine against it:

* :mod:`reference.object_engine` — the planar object engine: ``Robot``
  views over the kinematic store, per-``Point`` Looks and the per-``Point``
  snapshot pipeline (:class:`~reference.object_engine.ObjectSimulator`);
* :mod:`reference.rules` — the ``Point``-form KKNPS and Ando rules the
  engine's float-core ``compute`` is pinned against
  (:func:`~reference.rules.reference_compute`, which the object engine
  decides with);
* :mod:`reference.object_engine3` — the per-robot ``Vector3`` round loop
  of the 3D extension (:func:`~reference.object_engine3.run_simulation3_object`);
* :mod:`reference.hull` — the ``np.unique`` hull and a dense-matrix
  metrics sample (:func:`~reference.hull.dense_sample`);
* :mod:`reference.dense3` — the dense 3D distance helpers and a
  dense-matrix 3D metrics sample (:func:`~reference.dense3.dense_sample3`);
* :mod:`reference.sec` — Welzl's point-by-point loop
  (:func:`~reference.sec.welzl_pointwise`) and the exhaustive
  pair-and-triple search (:func:`~reference.sec.brute_force_sec`);
* :mod:`reference.kbound` — the k-async scheduler with the scanning
  k-bound (:class:`~reference.kbound.ScanKAsyncScheduler`);
* :mod:`reference.frames` — the per-activation scalar frame draw
  (:func:`~reference.frames.draw_frames_scalar`);
* :mod:`reference.epochs` — the rescanning epoch partition
  (:func:`~reference.epochs.epochs_scan`);
* :mod:`reference.visibility` — the dense ``(n, n)`` visibility graph
  and the depth-first components
  (:func:`~reference.visibility.dense_visibility_edges`);
* :mod:`reference.generators` — the Point-by-Point workload generators
  (:func:`~reference.generators.reference_workload`);
* :mod:`reference.rounds` — the per-row replay of a round's counters
  (:func:`~reference.rounds.replay_round_loop`).

``tests/conftest.py`` puts ``tests/`` on ``sys.path``, so tests import
these as ``reference.<module>``; scripts outside the suite add
``tests/`` themselves.
"""
