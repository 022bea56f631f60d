"""Tests for the analysis layer: theory bounds, statistics, metrics and tables."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    aggregate,
    broadcasts_per_delivered_bit,
    delivery_latencies,
    discard_outliers,
    expected_neighborhood_size,
    format_mapping,
    format_table,
    koo_tolerance_bound,
    latency_percentiles,
    max_tolerable_multipath,
    max_tolerable_neighborwatch,
    max_tolerable_neighborwatch_2vote,
    max_tolerated_fraction,
    minimum_runtime_rounds,
    multipath_lying_fraction,
    pipeline_speedup,
    runtime_bound_rounds,
    slowdown_factor,
    summarize_runs,
    to_csv,
    write_csv,
)
from repro.analysis import stats as stats_module
from repro.sim.results import NodeOutcome, RunResult

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestTheoryBounds:
    def test_koo_bound_r4(self):
        # R=4: R(2R+1)/2 = 18.
        assert koo_tolerance_bound(4) == pytest.approx(18.0)
        assert max_tolerable_multipath(4) == 17

    def test_neighborwatch_bound_r4(self):
        assert max_tolerable_neighborwatch(4) == 3

    def test_two_vote_bound_r4(self):
        assert max_tolerable_neighborwatch_2vote(4) == 7

    def test_bound_ordering(self):
        """NW <= 2-vote <= MultiPath for every radius (the paper's hierarchy)."""
        for radius in (1, 2, 3, 4, 5, 8, 10):
            nw = max_tolerable_neighborwatch(radius)
            nw2 = max_tolerable_neighborwatch_2vote(radius)
            mp = max_tolerable_multipath(radius)
            assert nw <= nw2 <= mp

    def test_expected_neighborhood_matches_paper_quote(self):
        """600 nodes on 20x20 with R=4: the paper quotes ~80 neighbors."""
        size = expected_neighborhood_size(600 / 400, 4, norm="linf")
        assert size == pytest.approx(96, rel=0.25)

    def test_multipath_lying_fraction_matches_paper(self):
        """Paper: t=3 => ~2.5%, t=5 => ~5% at density 1.5, R=4 (3/80 and 5/80)."""
        density = 600 / 400
        assert multipath_lying_fraction(3, density, 4) == pytest.approx(0.031, abs=0.01)
        assert multipath_lying_fraction(5, density, 4) == pytest.approx(0.052, abs=0.015)

    def test_runtime_bound_monotonic(self):
        assert minimum_runtime_rounds(2, 10, 4) == 24
        assert runtime_bound_rounds(2, 10, 4) > runtime_bound_rounds(1, 10, 4)
        assert runtime_bound_rounds(2, 10, 4, slots_per_cycle=100) > runtime_bound_rounds(2, 10, 4)

    def test_pipeline_speedup_grows_with_message(self):
        assert pipeline_speedup(4, 20, 16) > pipeline_speedup(4, 20, 2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            koo_tolerance_bound(0)
        with pytest.raises(ValueError):
            expected_neighborhood_size(0, 4)
        with pytest.raises(ValueError):
            minimum_runtime_rounds(-1, 2, 2)
        with pytest.raises(ValueError):
            multipath_lying_fraction(-1, 1.0, 4)


class TestStats:
    def test_discard_outliers(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 1000.0]
        kept = discard_outliers(values, z_threshold=2.0)
        assert 1000.0 not in kept
        assert len(kept) == 5

    def test_discard_outliers_small_samples_untouched(self):
        assert discard_outliers([1.0, 100.0]) == [1.0, 100.0]

    def test_discard_outliers_constant(self):
        assert discard_outliers([5.0] * 10) == [5.0] * 10

    def test_aggregate_basic(self):
        agg = aggregate([1.0, 2.0, 3.0], drop_outliers=False)
        assert agg.mean == pytest.approx(2.0)
        assert agg.count == 3
        assert agg.minimum == 1.0 and agg.maximum == 3.0
        assert agg.ci_low <= agg.mean <= agg.ci_high

    def test_aggregate_single_value(self):
        agg = aggregate([5.0])
        assert agg.mean == 5.0
        assert agg.std == 0.0
        assert agg.ci_low == agg.ci_high == 5.0

    def test_aggregate_empty(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_aggregate_as_dict(self):
        assert set(aggregate([1.0, 2.0]).as_dict()) == {
            "mean", "std", "count", "min", "max", "ci_low", "ci_high"
        }

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30))
    def test_aggregate_mean_within_range(self, values):
        agg = aggregate(values, drop_outliers=False)
        assert agg.minimum - 1e-6 <= agg.mean <= agg.maximum + 1e-6

    def test_aggregate_rejects_nan_instead_of_propagating(self):
        """A NaN sample must fail loudly, not poison the mean downstream."""
        with pytest.raises(ValueError, match="non-finite"):
            aggregate([1.0, float("nan"), 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            aggregate([float("inf")])

    def test_aggregate_constant_values_zero_width_interval(self):
        agg = aggregate([7.5] * 10)
        assert agg.mean == 7.5
        assert agg.std == 0.0
        assert agg.count == 10  # nothing mistaken for an outlier
        assert agg.ci_low == agg.ci_high == 7.5

    def test_aggregate_extreme_outlier_never_empties_the_sample(self):
        """Even with one sample vastly off, aggregation keeps a usable core."""
        values = [10.0, 11.0, 9.0, 10.5, 9.5] * 3 + [1e12]
        agg = aggregate(values)
        assert agg.count == len(values) - 1  # the outlier went, the core stayed
        assert agg.mean == pytest.approx(10.0, abs=1.0)
        assert math.isfinite(agg.mean)

    def test_discard_outliers_never_returns_empty(self):
        for values in ([1.0], [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 1e9]):
            assert discard_outliers(values)

    def test_discard_outliers_invalid_threshold(self):
        with pytest.raises(ValueError):
            discard_outliers([1.0, 2.0, 3.0, 4.0], z_threshold=0.0)


class TestTQuantiles:
    """The 95% interval's Student-t quantiles come from a frozen table.

    ``PointResult.to_record()`` carries the interval, so the table must be
    scipy's values float for float; scipy stays a test dependency only.
    """

    def test_table_matches_scipy_float_for_float(self):
        from scipy import stats as scipy_stats

        assert len(stats_module._T_975) == 64
        for df, value in enumerate(stats_module._T_975, start=1):
            assert value == float(scipy_stats.t.ppf(0.975, df))

    def test_other_quantiles_defer_to_scipy(self):
        from scipy import stats as scipy_stats

        for confidence, df in ((0.95, 65), (0.95, 300), (0.9, 4), (0.99, 12)):
            expected = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df))
            assert stats_module._t_quantile(confidence, df) == expected

    def test_aggregate_interval_is_scipys(self):
        from scipy import stats as scipy_stats

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        agg = aggregate(values, drop_outliers=False)
        arr = np.asarray(values)
        half = float(scipy_stats.t.ppf(0.975, df=len(values) - 1)) * (
            float(arr.std(ddof=1)) / np.sqrt(len(values))
        )
        assert (agg.ci_low, agg.ci_high) == (agg.mean - half, agg.mean + half)

    def test_experiments_import_and_run_without_scipy(self):
        code = (
            "import sys\n"
            "from repro.analysis import aggregate\n"
            "from repro.experiments import run_spec\n"
            "from repro.registry import EXPERIMENT_SPECS\n"
            "assert run_spec(EXPERIMENT_SPECS.get('DUAL'), scale='small')\n"
            "assert aggregate([1.0, 2.0, 4.0]).ci_high > 4.0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"


def _result(rounds=10, delivered=True, correct=True):
    outcome = NodeOutcome(0, True, True, delivered, correct if delivered else None,
                          rounds if delivered else None, broadcasts=4)
    return RunResult(message=(1, 0), total_rounds=rounds, terminated=True, outcomes={0: outcome})


class TestSummarizeRuns:
    def test_summary_aggregates_each_metric(self):
        runs = [_result(rounds=10), _result(rounds=20), _result(rounds=30)]
        summary = summarize_runs(runs)
        assert summary["rounds"].mean == pytest.approx(20.0)
        assert summary["completion_fraction"].mean == 1.0

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])


class TestMetrics:
    def make_result(self):
        outcomes = {
            0: NodeOutcome(0, True, True, True, True, 10, 6),
            1: NodeOutcome(1, True, True, True, True, 30, 4),
            2: NodeOutcome(2, True, True, False, None, None, 2),
            3: NodeOutcome(3, False, True, False, None, None, 9),
        }
        return RunResult(message=(1, 0), total_rounds=50, terminated=False, outcomes=outcomes)

    def test_delivery_latencies(self):
        assert delivery_latencies(self.make_result()) == [10, 30]

    def test_latency_percentiles(self):
        pct = latency_percentiles(self.make_result(), (50, 100))
        assert pct[100] == 30.0
        assert 10.0 <= pct[50] <= 30.0

    def test_latency_percentiles_no_deliveries(self):
        empty = RunResult(message=(1,), total_rounds=77, terminated=False, outcomes={})
        assert latency_percentiles(empty, (50,)) == {50: 77.0}

    def test_broadcasts_per_delivered_bit(self):
        result = self.make_result()
        # honest broadcasts = 12, delivered devices = 2, bits = 2 * 2 = 4
        assert broadcasts_per_delivered_bit(result) == pytest.approx(3.0)

    def test_slowdown_factor(self):
        fast = _result(rounds=10)
        slow = _result(rounds=77)
        assert slowdown_factor(slow, fast) == pytest.approx(7.7)

    def test_max_tolerated_fraction(self):
        curve = {0.0: 1.0, 0.05: 0.95, 0.10: 0.92, 0.15: 0.5, 0.25: 0.2}
        best = max_tolerated_fraction(lambda f: curve[f], sorted(curve), threshold=0.9)
        assert best == 0.10

    def test_max_tolerated_fraction_none_pass(self):
        assert max_tolerated_fraction(lambda f: 0.1, [0.05, 0.1], threshold=0.9) == 0.0

    def test_max_tolerated_fraction_empty(self):
        with pytest.raises(ValueError):
            max_tolerated_fraction(lambda f: 1.0, [])


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22.5, "b": "z"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no data)" in format_table([])

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["a", "c"])
        assert "b" not in text.splitlines()[0]

    def test_format_mapping(self):
        text = format_mapping({"alpha": 1.5, "beta": True}, title="m")
        assert "alpha" in text and "yes" in text

    def test_to_csv(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        csv_text = to_csv(rows)
        assert csv_text.splitlines()[0] == "a,b"
        assert len(csv_text.splitlines()) == 3

    def test_to_csv_empty(self):
        assert to_csv([]) == ""

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [{"x": 1}])
        assert path.read_text().startswith("x")
