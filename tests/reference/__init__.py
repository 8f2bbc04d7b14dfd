"""Reference implementations the engine is pinned against.

Each module here keeps a slow, per-object form of something ``src/``
computes on arrays, so tests can demand bit-identical results from the
two and benchmarks can time the array engine against it:

* :mod:`reference.object_engine` — the planar object engine: ``Robot``
  views over the kinematic store, per-``Point`` Looks and the per-``Point``
  snapshot pipeline (:class:`~reference.object_engine.ObjectSimulator`);
* :mod:`reference.object_engine3` — the per-robot ``Vector3`` round loop
  of the 3D extension (:func:`~reference.object_engine3.run_simulation3_object`).

``tests/conftest.py`` puts ``tests/`` on ``sys.path``, so tests import
these as ``reference.object_engine`` and ``reference.object_engine3``;
scripts outside the suite add ``tests/`` themselves.
"""
