"""Common machinery for the paper-reproduction experiments.

Every experiment is an :class:`~repro.experiments.spec.ExperimentSpec` whose
driver (:mod:`repro.experiments.driver`) builds one
:class:`~repro.sim.runner.SweepTask` per sweep point (one x-value of a
figure), executes them — serially or in parallel — through a
:class:`~repro.sim.runner.SweepExecutor`, aggregates the metrics and returns a
list of row dictionaries, which render to text via
:func:`repro.analysis.tables.format_table`.

This module provides the shared sweep-point runner.  :func:`run_points` runs
a whole batch of points at once, which is what lets an executor with
``workers > 1`` overlap repetitions *across* sweep points, not just within
one.  Because every repetition derives all of its randomness from
``base_seed + i``, the results are bit-identical regardless of the worker
count (see :mod:`repro.sim.runner`).

Factories handed to these helpers must be picklable when a parallel executor
is used — use the dataclass factories in :mod:`repro.experiments.factories`
rather than closures.

Passing a :class:`~repro.store.ResultStore` (the ``store`` argument accepted
here and by :func:`~repro.experiments.driver.run_spec`) routes the sweep
through a :class:`~repro.store.CachingSweepExecutor`: repetitions already on
disk are not re-simulated, misses are persisted as they complete, and the
resulting rows are byte-identical to an uncached run.

The same bit-identity extends to fault recovery: the executor dispatches
every repetition under the supervision envelope of
:mod:`repro.sim.supervision` (timeout, bounded retry, quarantine), so a sweep
that survives worker crashes or injected chaos faults produces exactly the
rows a fault-free run would.  Jobs that exhaust their retries surface
together as a :class:`~repro.sim.supervision.SweepFailure` *after* every
other point completed — callers that want partial figures can catch it and
keep the rows computed so far via a cache dir.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ..analysis.stats import Aggregate, summarize_runs
from ..sim.results import RECORD_VERSION, RunResult
from ..sim.runner import SweepExecutor, SweepTask

__all__ = ["PointResult", "run_points", "resolve_executor"]


@dataclass(slots=True)
class PointResult:
    """Aggregated outcome of one sweep point (one x-value of a figure)."""

    label: str
    repetitions: int
    aggregates: Mapping[str, Aggregate]
    runs: list[RunResult]

    @property
    def rounds(self) -> float:
        return self.aggregates["rounds"].mean

    @property
    def completion_fraction(self) -> float:
        return self.aggregates["completion_fraction"].mean

    @property
    def correctness_fraction(self) -> float:
        return self.aggregates["correctness_fraction"].mean

    @property
    def correct_delivery_fraction(self) -> float:
        return self.aggregates["correct_delivery_fraction"].mean

    @property
    def honest_broadcasts(self) -> float:
        return self.aggregates["honest_broadcasts"].mean

    @property
    def adversary_broadcasts(self) -> float:
        return self.aggregates["adversary_broadcasts"].mean

    def row(self, **extra) -> dict:
        """A flat row dictionary for table rendering."""
        row = {
            "label": self.label,
            "rounds": self.rounds,
            "completion_%": 100.0 * self.completion_fraction,
            "correct_%": 100.0 * self.correctness_fraction,
            "correct_delivery_%": 100.0 * self.correct_delivery_fraction,
            "honest_broadcasts": self.honest_broadcasts,
            "adversary_broadcasts": self.adversary_broadcasts,
            "repetitions": self.repetitions,
        }
        row.update(extra)
        return row

    # -- serialization ----------------------------------------------------------------
    def to_record(self, *, aggregate_only: bool = False) -> dict:
        """A JSON-compatible dictionary; lossless unless ``aggregate_only``.

        The lossless form embeds every repetition's full
        :meth:`~repro.sim.results.RunResult.to_record`, so a whole figure's
        points — and everything derivable from them — round-trip through
        :meth:`from_record`.  ``aggregate_only`` keeps just the per-metric
        aggregates (compact, but not reconstructible).
        """
        return {
            "version": RECORD_VERSION,
            "label": self.label,
            "repetitions": self.repetitions,
            "aggregates": {metric: agg.as_dict() for metric, agg in self.aggregates.items()},
            "runs": [run.to_record(aggregate_only=aggregate_only) for run in self.runs],
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "PointResult":
        """Rebuild a point from a lossless :meth:`to_record` dictionary."""
        version = record.get("version")
        if version != RECORD_VERSION:
            raise ValueError(
                f"cannot read PointResult record version {version!r} "
                f"(this build reads version {RECORD_VERSION})"
            )
        aggregates = {
            metric: Aggregate(
                mean=float(fields["mean"]),
                std=float(fields["std"]),
                count=int(fields["count"]),
                minimum=float(fields["min"]),
                maximum=float(fields["max"]),
                ci_low=float(fields["ci_low"]),
                ci_high=float(fields["ci_high"]),
            )
            for metric, fields in record["aggregates"].items()
        }
        return cls(
            label=str(record["label"]),
            repetitions=int(record["repetitions"]),
            aggregates=aggregates,
            runs=[RunResult.from_record(r) for r in record["runs"]],
        )


def _point_from_runs(task: SweepTask, runs: list[RunResult]) -> PointResult:
    return PointResult(
        label=task.label,
        repetitions=task.repetitions,
        aggregates=summarize_runs(runs),
        runs=runs,
    )


def resolve_executor(executor=None, store=None):
    """The executor a sweep should actually run through.

    ``None``/``None`` gives a serial :class:`SweepExecutor`; a ``store`` wraps
    whatever executor was chosen in a
    :class:`~repro.store.CachingSweepExecutor` (unless the executor is
    already one, in which case it is used as-is — its own store wins).
    """
    if executor is None:
        executor = SweepExecutor(0)
    if store is None:
        return executor
    from ..store import CachingSweepExecutor

    if isinstance(executor, CachingSweepExecutor):
        return executor
    return CachingSweepExecutor(store, executor)


def run_points(
    tasks: Sequence[SweepTask],
    *,
    executor: Optional[SweepExecutor] = None,
    store=None,
) -> list[PointResult]:
    """Run a batch of sweep points and aggregate each one.

    With a parallel ``executor`` every ``(point, repetition)`` pair of the
    batch is fanned out at once; results come back in task order either way.
    With a ``store`` (a :class:`~repro.store.ResultStore`) repetitions
    already cached are returned from disk and fresh ones are persisted.
    """
    tasks = list(tasks)
    runs_per_task = resolve_executor(executor, store).run(tasks)
    return [_point_from_runs(task, runs) for task, runs in zip(tasks, runs_per_task)]

