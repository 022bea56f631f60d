"""Benchmark CLUST — clustered vs uniform deployments (Section 6.2).

Regenerates the comparison between uniformly random and clustered (Marsaglia)
deployments for NeighborWatchRB, with and without lying devices.  Expected
shape: completion tracks connectivity from the source (clustered deployments
may leave a fraction of devices disconnected), and clustering does not hurt —
the paper reports it even helps — correctness under lying attacks.
"""

from __future__ import annotations

from conftest import attach_rows, run_once

from repro.experiments import run_spec
from repro.registry import EXPERIMENT_SPECS


def test_clustered_deployments(benchmark, bench_executor):
    spec = EXPERIMENT_SPECS.get("CLUST")
    rows = run_once(benchmark, run_spec, spec, scale="small", executor=bench_executor)
    attach_rows(
        benchmark,
        rows,
        title="CLUST: uniform vs clustered deployments",
        columns=[
            "deployment",
            "byzantine_fraction",
            "completion_%",
            "correct_%",
            "reachable_from_source_pct",
            "rounds",
        ],
    )

    kinds = {r["deployment"] for r in rows}
    assert kinds == {"uniform", "clustered"}
    for row in rows:
        # Completion never exceeds connectivity from the source (plus noise).
        assert row["completion_%"] <= row["reachable_from_source_pct"] + 5.0
        if row["byzantine_fraction"] == 0.0:
            assert row["correct_%"] >= 99.9
    clean_uniform = next(
        r for r in rows if r["deployment"] == "uniform" and r["byzantine_fraction"] == 0.0
    )
    assert clean_uniform["completion_%"] > 80.0
