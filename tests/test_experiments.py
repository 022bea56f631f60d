"""Smoke tests of the experiment harness (scaled-down specs).

Each experiment runs end-to-end on its ``small`` scale (or an even smaller
set of overrides) and the resulting rows are checked for the qualitative
shape the paper reports — who wins, how the curves move — rather than
absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.experiments import airtime_bits, fit_linear_trend, linear_scaling_error, run_spec
from repro.experiments.driver import resolve_context
from repro.registry import EXPERIMENT_SPECS

NEIGHBORWATCH = {"label": "NeighborWatchRB", "protocol": "neighborwatch", "tolerance": 0}


class TestRegistry:
    def test_all_design_md_ids_registered(self):
        assert EXPERIMENT_SPECS.keys() == [
            "FIG5", "JAM", "FIG6", "FIG7", "CLUST", "MAPSZ", "EPID", "DUAL"
        ]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            EXPERIMENT_SPECS.get("FIG99")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            run_spec(EXPERIMENT_SPECS.get("MAPSZ"), scale="huge")

    def test_paper_specs_construct(self):
        # The paper-scale specs are too slow to *run* in CI, but they must at
        # least resolve and be strictly larger than the small ones.
        def paper(experiment_id):
            return resolve_context(EXPERIMENT_SPECS.get(experiment_id), scale="paper")

        def small(experiment_id):
            return resolve_context(EXPERIMENT_SPECS.get(experiment_id), scale="small")

        assert len(paper("FIG5")["densities"]) > len(small("FIG5")["densities"])
        assert len(paper("FIG6")["fractions"]) > len(small("FIG6")["fractions"])
        assert len(paper("JAM")["budgets"]) > len(small("JAM")["budgets"])
        assert len(paper("MAPSZ")["map_sizes"]) >= len(small("MAPSZ")["map_sizes"])
        assert paper("FIG7")["repetitions"] >= small("FIG7")["repetitions"]
        assert paper("EPID")["include_multipath"]
        assert paper("DUAL")["payload_bits"] > small("DUAL")["payload_bits"]
        assert paper("CLUST")["num_nodes"] == 1200


class TestCrashResilience:
    def test_small_sweep_shape(self):
        rows = run_spec(
            EXPERIMENT_SPECS.get("FIG5"),
            overrides={
                "map_size": 8.0,
                "deployed_density": 2.5,
                "densities": (0.8, 2.2),
                "radius": 3.0,
                "message_length": 2,
                "protocols": (NEIGHBORWATCH,),
                "repetitions": 1,
            },
        )
        assert len(rows) == 2
        by_density = {row["density"]: row for row in rows}
        # Figure 5 shape: completion improves (weakly) with density.
        assert by_density[2.2]["completion_%"] >= by_density[0.8]["completion_%"] - 5.0
        assert by_density[2.2]["completion_%"] > 90.0
        # Crashes never cause incorrect deliveries.
        assert all(row["correct_%"] == pytest.approx(100.0) for row in rows)


class TestJamming:
    def test_delay_grows_with_budget(self):
        rows = run_spec(
            EXPERIMENT_SPECS.get("JAM"),
            overrides={
                "map_size": 8.0,
                "num_nodes": 100,
                "radius": 3.0,
                "message_length": 2,
                "budgets": (0, 8),
                "repetitions": 1,
            },
        )
        assert rows[0]["budget"] == 0 and rows[1]["budget"] == 8
        assert rows[1]["rounds"] >= rows[0]["rounds"]
        assert all(row["correct_%"] == pytest.approx(100.0) for row in rows)

    def test_fit_linear_trend(self):
        rows = [{"budget": 0, "rounds": 100}, {"budget": 10, "rounds": 200}, {"budget": 20, "rounds": 310}]
        slope, intercept, r2 = fit_linear_trend(rows)
        assert slope == pytest.approx(10.5, rel=0.1)
        assert r2 > 0.95

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_linear_trend([{"budget": 0, "rounds": 1}])


class TestLying:
    def test_correctness_degrades_with_liar_fraction(self):
        rows = run_spec(
            EXPERIMENT_SPECS.get("FIG6"),
            overrides={
                "map_size": 9.0,
                "num_nodes": 150,
                "radius": 3.0,
                "message_length": 2,
                "fractions": (0.0, 0.30),
                "protocols": (NEIGHBORWATCH,),
                "repetitions": 1,
            },
        )
        clean = next(r for r in rows if r["byzantine_fraction"] == 0.0)
        attacked = next(r for r in rows if r["byzantine_fraction"] == 0.30)
        assert clean["correct_%"] == pytest.approx(100.0)
        assert attacked["correct_%"] < clean["correct_%"]


class TestDensityTolerance:
    def test_tolerance_grows_with_density(self):
        rows = run_spec(
            EXPERIMENT_SPECS.get("FIG7"),
            overrides={
                "map_size": 8.0,
                "densities": (1.0, 3.0),
                "candidate_fractions": (0.0, 0.05, 0.15),
                "radius": 3.0,
                "message_length": 2,
                "protocols": (NEIGHBORWATCH,),
                "repetitions": 1,
            },
        )
        assert len(rows) == 2
        sparse = next(r for r in rows if r["density"] == 1.0)
        dense = next(r for r in rows if r["density"] == 3.0)
        # Figure 7 shape: higher density tolerates at least as many liars.
        assert dense["max_tolerated_%"] >= sparse["max_tolerated_%"]


class TestClustered:
    def test_clustered_vs_uniform(self):
        rows = run_spec(
            EXPERIMENT_SPECS.get("CLUST"),
            overrides={
                "map_size": 9.0,
                "num_nodes": 140,
                "num_clusters": 4,
                "radius": 3.0,
                "message_length": 2,
                "lying_fractions": (0.0,),
                "repetitions": 1,
            },
        )
        kinds = {row["deployment"] for row in rows}
        assert kinds == {"uniform", "clustered"}
        for row in rows:
            # Completion tracks connectivity from the source, as the paper notes.
            assert row["completion_%"] <= row["reachable_from_source_pct"] + 5.0


class TestMapSize:
    def test_linear_scaling(self):
        rows = run_spec(EXPERIMENT_SPECS.get("MAPSZ"), scale="small")
        assert len(rows) == 2
        assert rows[1]["rounds"] > rows[0]["rounds"]
        assert rows[1]["honest_broadcasts"] > rows[0]["honest_broadcasts"]
        assert linear_scaling_error(rows) < 0.5

    def test_linear_scaling_error_helper(self):
        perfect = [{"diameter_hops": d, "rounds": 100 * d} for d in (2, 4, 6)]
        assert linear_scaling_error(perfect) == pytest.approx(0.0, abs=1e-9)


class TestEpidemicComparison:
    def test_neighborwatch_slower_but_same_ballpark(self):
        rows = run_spec(EXPERIMENT_SPECS.get("EPID"), scale="small")
        by_protocol = {row["protocol"]: row for row in rows}
        epidemic = by_protocol["epidemic"]
        nw = by_protocol["NeighborWatchRB"]
        assert epidemic["slowdown"] == pytest.approx(1.0)
        # The paper reports ~7.7x on large maps; on the scaled-down map the
        # air-time slowdown lands in the same order of magnitude.
        assert 2.0 < nw["slowdown"] < 40.0
        assert nw["rounds"] > epidemic["rounds"]

    def test_airtime_helper(self):
        assert airtime_bits("epidemic", 100, 5) == 500
        assert airtime_bits("neighborwatch", 100, 5) == 100


class TestDualMode:
    def test_dual_mode_accepts_and_bounds_overhead(self):
        [row] = run_spec(EXPERIMENT_SPECS.get("DUAL"), scale="small")
        assert row["acceptance_%"] > 90.0
        assert row["correct_%"] == pytest.approx(100.0)
        # Securing only the digest costs far less than securing the payload
        # itself would; the overhead factor is a small constant.
        assert row["overhead_factor"] < 10.0

    def test_rows_render_as_table(self):
        [row] = run_spec(EXPERIMENT_SPECS.get("DUAL"), scale="small")
        text = format_table([row])
        assert "overhead_factor" in text
