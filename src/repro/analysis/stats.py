"""Repetition and aggregation of simulation runs.

The paper repeats every experiment 6-20 times, discards outliers and reports
averages.  These helpers run a scenario factory across seeds, aggregate any
numeric metric with the same outlier-discarding policy, and compute simple
confidence intervals (mean +/- t * s / sqrt(n)).

The Student-t quantile of the default 95% interval comes from a frozen table
for 1-64 degrees of freedom, copied float for float from
``scipy.stats.t.ppf(0.975, df)``; scipy is imported only for any other
confidence or sample count, so importing this module (and hence
``repro.experiments``) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..sim.results import RunResult

__all__ = ["Aggregate", "aggregate", "discard_outliers", "repeat_runs", "summarize_runs"]

#: ``float(scipy.stats.t.ppf(0.975, df))`` for ``df`` 1..64 (entry ``df - 1``).
_T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
)


def _t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t quantile ``t.ppf(0.5 + confidence / 2, df)``."""
    q = 0.5 + confidence / 2.0
    if q == 0.975 and 1 <= df <= len(_T_975):
        return _T_975[df - 1]
    from scipy import stats as scipy_stats

    return float(scipy_stats.t.ppf(q, df=df))


@dataclass(frozen=True, slots=True)
class Aggregate:
    """Summary statistics of one metric across repetitions."""

    mean: float
    std: float
    count: int
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def as_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "std": self.std,
            "count": float(self.count),
            "min": self.minimum,
            "max": self.maximum,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def discard_outliers(values: Sequence[float], *, z_threshold: float = 3.0) -> list[float]:
    """Drop values more than ``z_threshold`` standard deviations from the mean.

    With fewer than four samples nothing is discarded (the paper's runs keep
    at least a handful of repetitions).  The result is never empty: every
    sample within the threshold of the mean survives, and at least the
    samples closest to the mean always are — a degenerate threshold that
    would discard everything returns the input unchanged instead.
    """
    if z_threshold <= 0:
        raise ValueError("z_threshold must be positive")
    vals = [float(v) for v in values]
    if len(vals) < 4:
        return vals
    arr = np.asarray(vals)
    mean, std = arr.mean(), arr.std()
    if std == 0:
        return vals
    keep = np.abs(arr - mean) <= z_threshold * std
    if not keep.any():  # pragma: no cover - unreachable for finite z >= 1, kept as a guard
        return vals
    return [float(v) for v in arr[keep]]


def aggregate(values: Sequence[float], *, confidence: float = 0.95, drop_outliers: bool = True) -> Aggregate:
    """Aggregate a list of metric values into an :class:`Aggregate`.

    Edge cases are explicit rather than silently propagated:

    * an empty sequence raises ``ValueError`` (there is no meaningful mean);
    * non-finite samples (NaN/inf) raise ``ValueError`` — a NaN would
      otherwise poison every downstream statistic without a trace of where
      it entered;
    * a single value aggregates to a zero-width interval
      (``std == 0``, ``ci_low == mean == ci_high``);
    * constant values likewise give ``std == 0`` and a zero-width interval,
      with no samples discarded as outliers.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot aggregate an empty list of values")
    if not all(math.isfinite(v) for v in vals):
        bad = [v for v in vals if not math.isfinite(v)]
        raise ValueError(f"cannot aggregate non-finite values: {bad[:5]}")
    if drop_outliers:
        vals = discard_outliers(vals)
    arr = np.asarray(vals, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    if len(arr) > 1 and std > 0:
        sem = std / np.sqrt(len(arr))
        half = _t_quantile(confidence, len(arr) - 1) * sem
    else:
        half = 0.0
    return Aggregate(
        mean=mean,
        std=std,
        count=len(arr),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        ci_low=mean - half,
        ci_high=mean + half,
    )


def repeat_runs(
    run_factory: Callable[[int], RunResult], repetitions: int, *, base_seed: int = 0
) -> list[RunResult]:
    """Run ``run_factory(seed)`` for ``repetitions`` distinct seeds."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return [run_factory(base_seed + i) for i in range(repetitions)]


def summarize_runs(
    results: Iterable[RunResult],
    metrics: Sequence[str] = (
        "rounds",
        "completion_fraction",
        "correctness_fraction",
        "correct_delivery_fraction",
        "honest_broadcasts",
        "adversary_broadcasts",
    ),
    *,
    drop_outliers: bool = True,
) -> Mapping[str, Aggregate]:
    """Aggregate the standard summary metrics across repetitions."""
    results = list(results)
    if not results:
        raise ValueError("no results to summarize")
    summaries = [r.summary() for r in results]
    out: dict[str, Aggregate] = {}
    for metric in metrics:
        out[metric] = aggregate([s[metric] for s in summaries], drop_outliers=drop_outliers)
    return out
