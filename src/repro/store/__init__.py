"""Content-addressed result store and the caching sweep executor.

Every experiment of the reproduction is a sweep of seeded, bit-reproducible
``(task, repetition)`` pairs (:mod:`repro.sim.runner`).  This package turns
that determinism into incrementality:

* :class:`ResultStore` — an on-disk, schema-versioned cache of serialized
  :class:`~repro.sim.results.RunResult` records, keyed by
  :meth:`~repro.sim.runner.SweepTask.fingerprint` and sharded into JSON-lines
  files under a cache directory;
* :class:`CachingSweepExecutor` — a drop-in executor that answers repetitions
  from the store and persists misses as they complete, making every sweep
  resumable and every rerun incremental;
* :mod:`repro.store.integrity` — offline ``verify``/``repair`` tooling for
  cache directories (``python -m repro.store verify|repair <cache_dir>``),
  sharing the loader's line parser so online and offline agree on "damaged";
* :mod:`repro.store.shared` — the :data:`~repro.registry.STORE_BACKENDS`
  seam: the plain store as ``local`` plus :class:`SharedResultStore`
  (``shared``), whose freshness re-stats and per-shard append locks make one
  cache directory safe for many concurrent worker processes (service mode).

See ROADMAP.md ("Infrastructure notes") for the fingerprint scheme and the
cache layout, and ``python -m repro.experiments run <ID> --cache-dir PATH``
for the command-line entry point.
"""

from .executor import CachingSweepExecutor
from .integrity import ShardReport, repair_store, scan_store
from .shared import SharedResultStore
from .store import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ResultStore,
    StoreIntegrityWarning,
    StoreStats,
)

__all__ = [
    "CachingSweepExecutor",
    "ResultStore",
    "SharedResultStore",
    "StoreStats",
    "StoreIntegrityWarning",
    "ShardReport",
    "scan_store",
    "repair_store",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
]
