"""Parallel sweep execution.

Every experiment of the reproduction is a *sweep*: a grid of points, each
repeated over several seeds, where repetition ``i`` of a point derives its
deployment, fault placement and scenario seed from ``base_seed + i`` alone.
Repetitions are therefore mutually independent and can run in any order — or
in different processes — without changing a single bit of the results.

This module turns that property into throughput:

* :class:`SweepTask` describes one sweep point declaratively (a deployment
  factory, a :class:`~repro.sim.config.ScenarioConfig`, an optional fault
  factory, a repetition count and a base seed).  Tasks must be *picklable*:
  factories are module-level callables or dataclass instances (see
  :mod:`repro.experiments.factories`), never closures.
* :func:`run_repetition` executes one ``(task, repetition)`` pair.  The
  scenario is cloned with :func:`dataclasses.replace`, so every config field —
  including ones added after this module was written — survives the cloning.
* :class:`SweepExecutor` drives all ``(task, repetition)`` pairs of a sweep
  through a pluggable :class:`~repro.sim.backends.ExecutorBackend` (serial
  inline execution, a process pool, the fault-injecting chaos wrapper, or
  the ``queue`` backend dispatching to the worker daemons of
  :mod:`repro.service` — see :data:`repro.registry.EXECUTOR_BACKENDS`) under
  the supervision
  envelope of :mod:`repro.sim.supervision`: per-repetition wall-clock
  timeouts, bounded deterministic-backoff retry of transient failures
  (worker crashes, timeouts), and quarantine of jobs that exhaust their
  retries — reported together as a :class:`~repro.sim.supervision.SweepFailure`
  after the rest of the sweep completed, instead of the first bad job
  aborting the whole figure.  Because each pair is fully determined by its
  seed, the output is identical for every backend, worker count and retry
  history.

``SweepExecutor(workers=0)`` (the default) runs everything inline in the
current process; experiments accept an executor so callers choose the degree
of parallelism exactly once, e.g. via ``python -m repro.experiments run
<ID> --workers N [--backend KEY --timeout S --max-retries N]``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..topology.deployment import Deployment
from .builder import run_scenario
from .config import FaultPlan, ScenarioConfig
from .results import RunResult
from .supervision import (
    FabricTelemetry,
    JobFailure,
    Supervisor,
    SupervisionPolicy,
    SweepFailure,
)

__all__ = [
    "DeploymentFactory",
    "FaultFactory",
    "SweepTask",
    "SweepExecutor",
    "run_repetition",
    "resolve_workers",
    "fingerprint_payload",
]

#: A deployment factory receives the repetition seed and returns a deployment.
DeploymentFactory = Callable[[int], Deployment]
#: A fault factory receives the deployment and the repetition seed.
FaultFactory = Callable[[Deployment, int], FaultPlan]


def fingerprint_payload(obj) -> object:
    """Reduce ``obj`` to a canonical JSON-compatible value for fingerprinting.

    The reduction is *stable across processes and interpreter runs*: it never
    relies on ``hash()`` (randomized), ``id()`` or dict insertion order.
    Dataclasses are reduced to their qualified class name plus their fields,
    enums to their values, NumPy arrays to a digest of their raw bytes.  Plain
    module-level functions reduce to their qualified name.  Anything else —
    lambdas, bound methods, arbitrary objects — is rejected, because its
    identity cannot be captured stably; factories must be the dataclass kind
    of :mod:`repro.experiments.factories` (which also makes them picklable).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips floats exactly; json.dumps uses the same encoding.
        return obj
    if isinstance(obj, enum.Enum):
        return fingerprint_payload(obj.value)
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(),
            "shape": list(obj.shape),
            "dtype": str(obj.dtype),
        }
    if isinstance(obj, np.generic):
        return fingerprint_payload(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__type__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: fingerprint_payload(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, (list, tuple)):
        return [fingerprint_payload(v) for v in obj]
    if isinstance(obj, dict):
        return {
            str(k): fingerprint_payload(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    qualname = getattr(obj, "__qualname__", None)
    module = getattr(obj, "__module__", None)
    if callable(obj) and qualname and module and "<" not in qualname:
        return {"__callable__": f"{module}.{qualname}"}
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!s} objects stably; "
        "use dataclass factories (repro.experiments.factories) or module-level functions"
    )


@dataclass(slots=True)
class SweepTask:
    """One sweep point: ``repetitions`` seeded, independent simulation runs.

    Attributes
    ----------
    label:
        Human-readable identifier of the point (becomes the row label).
    deployment_factory / fault_factory:
        Picklable callables deriving the deployment and the fault plan from
        the repetition seed.
    config:
        The scenario template; each repetition runs a copy with only ``seed``
        replaced (via :func:`dataclasses.replace`, so every field round-trips).
    repetitions / base_seed:
        Repetition ``i`` uses seed ``base_seed + i``.
    max_rounds:
        Optional override of the derived round cap.
    extra:
        Extra row columns the experiment wants attached to this point's
        results (carried along, not interpreted).
    """

    label: str
    deployment_factory: DeploymentFactory
    config: ScenarioConfig
    fault_factory: Optional[FaultFactory] = None
    repetitions: int = 3
    base_seed: int = 0
    max_rounds: Optional[int] = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    def scenario(self, seed: int) -> ScenarioConfig:
        """The scenario of the repetition with seed ``seed``.

        Uses :func:`dataclasses.replace` so that any field added to
        :class:`ScenarioConfig` in the future is carried over automatically.
        """
        return replace(self.config, seed=seed)

    def seeds(self) -> range:
        return range(self.base_seed, self.base_seed + self.repetitions)

    def fingerprint(self, repetition: int) -> str:
        """Stable content hash identifying one ``(task, repetition)`` pair.

        The fingerprint covers everything that determines the bits of the
        repetition's :class:`RunResult`: the scenario config, the deployment
        and fault factories (by class and parameters, arrays by content), the
        round-cap override and the derived repetition seed.  Presentation-only
        attributes (``label``, ``extra``) and the repetition *count* are
        deliberately excluded, so re-labelling a sweep or growing its
        repetitions reuses every run already computed.  The hash is a hex
        SHA-256 over a canonical JSON encoding — identical across processes,
        platforms and interpreter restarts, which is what lets
        :class:`repro.store.ResultStore` key its on-disk cache by it.
        """
        if not (0 <= repetition < self.repetitions):
            raise ValueError(
                f"repetition {repetition} out of range for {self.repetitions} repetitions"
            )
        seed = self.base_seed + repetition
        payload = {
            "kind": "repro.sweep_repetition",
            # The *effective* scenario (template with the repetition seed
            # substituted), so two tasks differing only in template seed but
            # producing the same runs share cache entries.
            "config": fingerprint_payload(self.scenario(seed)),
            "deployment_factory": fingerprint_payload(self.deployment_factory),
            "fault_factory": fingerprint_payload(self.fault_factory),
            "max_rounds": self.max_rounds,
            "seed": seed,
        }
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode("utf8")).hexdigest()


def run_repetition(task: SweepTask, repetition: int) -> RunResult:
    """Run one repetition of a sweep task (deterministic in the derived seed)."""
    if not (0 <= repetition < task.repetitions):
        raise ValueError(f"repetition {repetition} out of range for {task.repetitions} repetitions")
    seed = task.base_seed + repetition
    deployment = task.deployment_factory(seed)
    faults = task.fault_factory(deployment, seed) if task.fault_factory is not None else FaultPlan()
    return run_scenario(deployment, task.scenario(seed), faults, max_rounds=task.max_rounds)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count knob: ``None`` means one per CPU, ``0``/``1`` serial."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError("workers must be >= 0")
    return int(workers)


class SweepExecutor:
    """Execute sweep tasks through a supervised, pluggable executor backend.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` run everything inline (no processes are spawned);
        ``N > 1`` uses a process pool of ``N`` workers; ``None`` uses one
        worker per CPU.
    chunk_size:
        How many ``(task, repetition)`` jobs each worker picks up at a time.
        ``1`` (the default) gives the best load balance; larger chunks
        amortise pickling overhead when individual runs are very short.
    backend:
        An :class:`~repro.sim.backends.ExecutorBackend` instance or a
        :data:`~repro.registry.EXECUTOR_BACKENDS` key (``"serial"``,
        ``"process-pool"``, ``"chaos"``).  ``None`` auto-selects from
        ``workers``, preserving the historical behaviour.
    timeout / max_retries / policy:
        The supervision envelope: per-repetition wall-clock budget, bounded
        retry of transient failures with deterministic backoff, quarantine
        after the budget is exhausted (see :mod:`repro.sim.supervision`).
        ``policy`` supplies a full :class:`SupervisionPolicy` and wins over
        the two shorthand knobs.

    The backend (and its worker pool, if any) is created lazily on the first
    :meth:`run` and reused across calls, so adaptive experiments that run
    many small sweeps back-to-back (e.g. the FIG7 tolerated-fraction search)
    pay the pool start-up cost once, not per sweep.  Call :meth:`close` — or
    use the executor as a context manager — to release the workers; queued
    but unstarted jobs are *cancelled* at close, so a failed sweep never
    blocks on work nobody will consume.  Recovery events are counted in
    :attr:`telemetry`; jobs quarantined by the last :meth:`run` are in
    :attr:`failures`.
    """

    def __init__(
        self,
        workers: Optional[int] = 0,
        *,
        chunk_size: int = 1,
        backend=None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = int(chunk_size)
        if policy is None:
            policy = SupervisionPolicy(
                timeout=timeout,
                max_retries=2 if max_retries is None else int(max_retries),
            )
        self.policy = policy
        self.telemetry = FabricTelemetry()
        self.failures: list[JobFailure] = []
        self._backend_spec = backend
        self._backend = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepExecutor(workers={self.workers}, chunk_size={self.chunk_size})"

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    @property
    def backend(self):
        """The resolved backend (built lazily so construction stays cheap)."""
        if self._backend is None:
            from .backends import resolve_backend

            self._backend = resolve_backend(
                self._backend_spec,
                workers=self.workers,
                chunk_size=self.chunk_size,
                telemetry=self.telemetry,
            )
        return self._backend

    @property
    def _pool(self):
        """The live process pool, if the backend keeps one (introspection aid)."""
        backend = self._backend
        while backend is not None:
            pool = getattr(backend, "_pool", None)
            if pool is not None:
                return pool
            backend = getattr(backend, "inner", None)
        return None

    def close(self, *, cancel_futures: bool = True) -> None:
        """Shut the backend down; queued-but-unstarted jobs are cancelled.

        ``cancel_futures=True`` (the default) is what keeps a failed or
        interrupted sweep from blocking on jobs that nobody will consume;
        pass ``False`` to drain the queue instead.
        """
        if self._backend is not None:
            self._backend.close(cancel_futures=cancel_futures)
            self._backend = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def notify_persisted(self, fingerprint: str, path) -> None:
        """Forward a store-append notification to the backend (chaos hook)."""
        if self._backend is not None:
            self._backend.notify_persisted(fingerprint, path)

    def iter_jobs(
        self, jobs: Sequence[tuple[SweepTask, int]]
    ) -> Iterator[tuple[int, RunResult]]:
        """Run ``(task, repetition)`` jobs, yielding ``(position, result)`` pairs.

        Serial backends yield in job order; parallel backends yield in
        *completion* order (at ``chunk_size`` granularity), so a slow job
        never delays the delivery of jobs that finished after it.  That is
        what lets :class:`repro.store.CachingSweepExecutor` persist
        completions as they land: an interrupted parallel sweep keeps every
        repetition that finished, not just the prefix before the slowest job.
        Callers reassemble order from the yielded positions.

        Jobs that exhaust their retry budget are quarantined: every other
        job still completes (and is yielded, so a caching front end persists
        it), then one :class:`~repro.sim.supervision.SweepFailure` reports
        all of them together.  The quarantine records stay in
        :attr:`failures` either way.
        """
        jobs = list(jobs)
        self.failures = []
        supervisor = Supervisor(self.backend, self.policy, self.telemetry)
        yield from supervisor.run(jobs)
        if supervisor.failures:
            self.failures = list(supervisor.failures)
            raise SweepFailure(supervisor.failures)

    def run(self, tasks: Sequence[SweepTask]) -> list[list[RunResult]]:
        """Run every repetition of every task; results in task/repetition order.

        The returned list has one inner list per task, with the repetition at
        seed ``base_seed + i`` at index ``i`` — exactly what a serial loop
        over :func:`run_repetition` would produce.
        """
        tasks = list(tasks)
        slots = [
            (task_index, repetition)
            for task_index, task in enumerate(tasks)
            for repetition in range(task.repetitions)
        ]
        jobs = [(tasks[task_index], repetition) for task_index, repetition in slots]
        results: list[list[Optional[RunResult]]] = [[None] * task.repetitions for task in tasks]
        for position, result in self.iter_jobs(jobs):
            task_index, repetition = slots[position]
            results[task_index][repetition] = result
        return results  # type: ignore[return-value]

    def run_task(self, task: SweepTask) -> list[RunResult]:
        """Run a single task's repetitions (convenience wrapper around :meth:`run`)."""
        return self.run([task])[0]
