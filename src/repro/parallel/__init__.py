"""Parallel substrate: the island GA's ring and experiment orchestration.

Two layers live here:

* **Communication** — the paper runs one GA sub-population per MPI
  process and migrates individuals around a single-ring topology
  (Fig 6). mpi4py is not available offline, so :class:`LocalRing`
  performs the ring exchange in process, deterministically, so results
  are reproducible.
* **Orchestration** (:mod:`repro.parallel.pool`) — a deterministic
  process-pool scheduler that fans independent experiment work units
  (tuner runs, motivation studies) across workers, with per-worker
  shards of the persistent evaluation store. Results are bit-identical
  to the sequential path.
"""

from repro.parallel.comm import LocalRing, ring_exchange
from repro.parallel.pool import Task, WorkerPool, run_tasks

__all__ = [
    "LocalRing",
    "ring_exchange",
    "Task",
    "WorkerPool",
    "run_tasks",
]
