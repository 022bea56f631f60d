"""Output hashes and the reference gate every benchmark sample passes through.

A timing only counts if the run computed the right numbers, so each sample
reports a canonical SHA-256 of what it produced and the parent compares it
with ``reference.json``:

* sweeps hash their exported rows (one hash per experiment or part) and
  every repetition's ``RunResult.to_record()``, keyed by store fingerprint;
* single simulations hash their ``RunResult.to_record()``, keyed by the
  deployment seed.

The hash is ``benchmarks/capture.py``'s ``series_hash``, the one behind
``BENCH_*.json``, so the ``sweep-small`` rows of the seven experiments it
runs in full are the very hashes recorded in ``BENCH_10.json``.
"""

from __future__ import annotations

import functools
import importlib.util
import json
from pathlib import Path
from typing import Mapping

REFERENCE_PATH = Path(__file__).with_name("reference.json")
CAPTURE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "capture.py"


@functools.cache
def _capture():
    spec = importlib.util.spec_from_file_location("bench_capture", CAPTURE_PATH)
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    return capture


def series_hash(value) -> str:
    """``benchmarks/capture.py``'s SHA-256 over canonical JSON of ``value``."""
    return _capture().series_hash(value)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf8") as handle:
        return json.load(handle)


def mismatches(expected: Mapping, outputs: Mapping, *, complete: bool) -> list[str]:
    """Every way a sample's ``outputs`` differ from its workload's reference.

    ``expected`` and ``outputs`` both map ``"rows"`` / ``"records"`` to
    ``{key: sha256}``.  Each reported hash must equal the reference for its
    key; an unknown key is a mismatch too, because it means the sample ran
    an input nobody pinned.  With ``complete`` (the sweeps, which run their
    whole input set every sample) a pinned key the sample did not report is
    a mismatch as well.
    """
    problems = []
    for kind in ("rows", "records"):
        pinned = expected.get(kind, {})
        reported = outputs.get(kind, {})
        for key, digest in sorted(reported.items()):
            want = pinned.get(key)
            if want is None:
                problems.append(f"{kind}[{key}]: no reference hash")
            elif want != digest:
                problems.append(f"{kind}[{key}]: {digest[:16]} != reference {want[:16]}")
        if complete:
            problems += [f"{kind}[{key}]: missing" for key in sorted(set(pinned) - set(reported))]
    return problems
