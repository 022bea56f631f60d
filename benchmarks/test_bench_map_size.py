"""Benchmark MAPSZ — scaling with the map size / network diameter (Section 6.2).

Regenerates the "running time and message complexity scale linearly with the
diameter" series for NeighborWatchRB.
"""

from __future__ import annotations

from conftest import attach_rows, run_once

from repro.experiments import linear_scaling_error, run_spec
from repro.experiments.driver import resolve_context
from repro.registry import EXPERIMENT_SPECS


def test_mapsize_linear_scaling(benchmark, bench_executor):
    spec = EXPERIMENT_SPECS.get("MAPSZ")
    params = resolve_context(spec, scale="small")
    rows = run_once(benchmark, run_spec, spec, scale="small", executor=bench_executor)
    attach_rows(
        benchmark,
        rows,
        title="MAPSZ: scaling with map size",
        columns=[
            "map_size",
            "num_nodes",
            "diameter_hops",
            "rounds",
            "rounds_per_hop",
            "honest_broadcasts",
            "broadcasts_per_node",
            "completion_%",
        ],
    )

    assert [r["map_size"] for r in rows] == list(params["map_sizes"])
    # Larger maps take longer and use more messages in total...
    assert rows[-1]["rounds"] > rows[0]["rounds"]
    assert rows[-1]["honest_broadcasts"] > rows[0]["honest_broadcasts"]
    # ...but the series stays consistent with linear growth in the diameter.
    error = linear_scaling_error(rows)
    benchmark.extra_info["linear_fit_relative_rms"] = error
    assert error < 0.5
    # Per-device message complexity grows far slower than the total.
    growth_total = rows[-1]["honest_broadcasts"] / rows[0]["honest_broadcasts"]
    growth_per_node = rows[-1]["broadcasts_per_node"] / rows[0]["broadcasts_per_node"]
    assert growth_per_node < growth_total
