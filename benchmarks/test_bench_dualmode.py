"""Benchmark DUAL — the dual-mode protocol (Sections 1 and 6.2).

Regenerates the dual-mode experiment: flood the payload with the epidemic
protocol, secure only a short digest with NeighborWatchRB, and accept the
payload only when the digests match.  The paper conjectures the end-to-end
overhead over plain flooding stays modest (below ~2x at paper scale with a
digest of about a tenth of the payload); on the scaled-down map the digest
phase is relatively more expensive, so the bound checked here is looser.
"""

from __future__ import annotations

from conftest import attach_rows, run_once

from repro.experiments import run_spec
from repro.registry import EXPERIMENT_SPECS


def test_dual_mode_overhead(benchmark, bench_executor):
    spec = EXPERIMENT_SPECS.get("DUAL")
    [row] = run_once(benchmark, run_spec, spec, scale="small", executor=bench_executor)
    attach_rows(
        benchmark,
        [row],
        title="DUAL: dual-mode protocol (epidemic payload + secured digest)",
    )

    # Every device that accepted got the authentic payload.
    assert row["correct_%"] >= 99.9
    assert row["acceptance_%"] > 90.0
    # The digest is much shorter than the payload...
    assert row["digest_bits"] <= max(1, row["payload_bits"] // 2)
    # ...and securing only the digest costs a small constant factor over the
    # unprotected flood (versus the ~10x of securing every payload bit).
    assert row["overhead_factor"] < 10.0
