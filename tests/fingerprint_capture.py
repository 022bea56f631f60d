"""Capture the ``SweepTask`` fingerprints an experiment constructs, without simulating.

The API-redesign contract of PR 5 is that the declarative drivers build *the
same* sweep tasks — byte-identical ``SweepTask.fingerprint()`` values, same
labels, same repetition counts, in the same construction order — as the
hand-written experiment modules they replaced, so that every result cached by
a pre-redesign :class:`repro.store.ResultStore` keeps answering.

This helper runs an experiment with :func:`repro.experiments.base.run_points`
replaced by a recorder that captures each task's label and per-repetition
fingerprints and returns dummy aggregates (value 1.0 for every metric), so
the capture takes milliseconds instead of simulating.  The dummy values are
part of the recorded contract: adaptive experiments (FIG7's tolerated-fraction
search) take the control-flow path the dummies induce — with every evaluation
"passing", the search visits every candidate fraction in ascending order —
and the golden file pins the task sequence of exactly that path.

``tests/data/experiment_task_fingerprints.json`` was generated by this module
against the pre-redesign experiment modules (PR 4 tree) via::

    PYTHONPATH=src:tests python -c "from fingerprint_capture import write_golden; write_golden()"

and must never be regenerated from post-redesign code — it *is* the
pre-redesign reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

GOLDEN_PATH = Path(__file__).parent / "data" / "experiment_task_fingerprints.json"

EXPERIMENT_IDS = ("FIG5", "JAM", "FIG6", "FIG7", "CLUST", "MAPSZ", "EPID", "DUAL")
SCALES = ("small", "paper")

_METRICS = (
    "rounds",
    "completion_fraction",
    "correctness_fraction",
    "correct_delivery_fraction",
    "honest_broadcasts",
    "adversary_broadcasts",
)


class _CaptureDone(Exception):
    """Raised once every task of a runs-consuming experiment is recorded."""


def _dummy_aggregates():
    from repro.analysis.stats import Aggregate

    return {
        metric: Aggregate(
            mean=1.0, std=0.0, count=1, minimum=1.0, maximum=1.0, ci_low=1.0, ci_high=1.0
        )
        for metric in _METRICS
    }


def capture_fingerprints(experiment_id: str, scale: str) -> list[dict]:
    """Record the tasks ``experiment_id`` constructs at ``scale``.

    Returns one record per task, in construction order:
    ``{"label", "repetitions", "base_seed", "fingerprints": [...]}``.
    """
    import repro.experiments.base as base
    from repro.experiments import run_spec
    from repro.registry import EXPERIMENT_SPECS

    records: list[dict] = []
    real_point_result = base.PointResult
    real_run_points = base.run_points

    def recording_run_points(tasks, *, executor=None, store=None):
        points = []
        for task in tasks:
            records.append(
                {
                    "label": task.label,
                    "repetitions": task.repetitions,
                    "base_seed": task.base_seed,
                    "fingerprints": [task.fingerprint(r) for r in range(task.repetitions)],
                }
            )
            points.append(
                real_point_result(
                    label=task.label,
                    repetitions=task.repetitions,
                    aggregates=_dummy_aggregates(),
                    runs=[],
                )
            )
        if experiment_id.upper() == "DUAL":
            # The dual-mode driver consumes the raw RunResults, which the
            # dummy points do not carry; its two tasks are constructed in the
            # single run_points call just recorded, so stop here.
            raise _CaptureDone
        return points

    # The drivers bind ``run_points`` at import time, so patch every
    # repro.experiments.* binding that refers to the real function.
    patches = []
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "run_points", None) is real_run_points:
            patches.append(mock.patch.object(module, "run_points", recording_run_points))
    try:
        for patch in patches:
            patch.start()
        try:
            run_spec(EXPERIMENT_SPECS.get(experiment_id), scale=scale)
        except _CaptureDone:
            pass
    finally:
        for patch in patches:
            patch.stop()
    return records


def capture_all() -> dict:
    return {
        experiment_id: {scale: capture_fingerprints(experiment_id, scale) for scale in SCALES}
        for experiment_id in EXPERIMENT_IDS
    }


def write_golden() -> None:  # pragma: no cover - one-shot generator
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with GOLDEN_PATH.open("w", encoding="utf8") as handle:
        json.dump(capture_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
