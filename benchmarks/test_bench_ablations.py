"""Ablation benchmarks for four design choices of the reproduction:

* square size: the paper's simulation uses R/3 squares instead of the
  analytical ceil(R/2) — smaller squares mean more hops but denser meta-node
  coverage;
* idle veto: the soundness device of ``repro.core.twobit.TwoBitBlocker`` (a
  silent interval must not read as a (0,0) pair);
* jamming probability: the paper states 1/5 is near-optimal for the jammers;
* channel model: unit-disk vs Friis/SINR capture.
"""

from __future__ import annotations

from conftest import attach_rows, run_once

from repro.adversary.placement import random_fault_selection
from repro.sim.builder import run_scenario
from repro.sim.config import FaultPlan, ScenarioConfig
from repro.topology.deployment import uniform_deployment


def _run(deployment, *, square_side=None, idle_veto=True, channel="unitdisk", faults=None, seed=4):
    config = ScenarioConfig(
        protocol="neighborwatch",
        radius=3.0,
        message_length=3,
        square_side=square_side,
        idle_veto=idle_veto,
        channel=channel,
        seed=seed,
    )
    result = run_scenario(deployment, config, faults)
    return {
        "rounds": result.completion_rounds,
        "completion_%": 100.0 * result.completion_fraction,
        "correct_%": 100.0 * result.correctness_fraction,
        "honest_broadcasts": result.honest_broadcasts,
    }


def _ablate_square_side(deployment):
    rows = []
    for label, side in (("R/3 (paper sim)", 1.0), ("R/2 (analytic)", 1.5)):
        row = _run(deployment, square_side=side)
        row["square_side"] = label
        rows.append(row)
    return rows


def test_ablation_square_size(benchmark):
    deployment = uniform_deployment(140, 9, 9, rng=21)
    rows = run_once(benchmark, _ablate_square_side, deployment)
    attach_rows(benchmark, rows, title="Ablation: NeighborWatchRB square side",
                columns=["square_side", "rounds", "completion_%", "correct_%", "honest_broadcasts"])
    assert all(r["correct_%"] >= 99.9 for r in rows)
    # Both settings must deliver to (almost) everyone on this dense deployment.
    assert all(r["completion_%"] > 90.0 for r in rows)


def _ablate_idle_veto(deployment):
    rows = []
    for idle_veto in (True, False):
        row = _run(deployment, idle_veto=idle_veto)
        row["idle_veto"] = idle_veto
        rows.append(row)
    return rows


def test_ablation_idle_veto(benchmark):
    deployment = uniform_deployment(140, 9, 9, rng=22)
    rows = run_once(benchmark, _ablate_idle_veto, deployment)
    attach_rows(benchmark, rows, title="Ablation: idle veto on/off",
                columns=["idle_veto", "rounds", "completion_%", "correct_%", "honest_broadcasts"])
    with_veto = next(r for r in rows if r["idle_veto"])
    # With the idle veto the protocol is sound: full correctness.
    assert with_veto["correct_%"] >= 99.9
    assert with_veto["completion_%"] > 90.0
    # The veto costs extra honest broadcasts (that is its price).
    without = next(r for r in rows if not r["idle_veto"])
    assert with_veto["honest_broadcasts"] >= without["honest_broadcasts"]


def _ablate_jam_probability(deployment, jammers):
    rows = []
    for prob in (0.05, 0.2, 1.0):
        faults = FaultPlan(jammers=tuple(jammers), jammer_budget=8, jam_probability=prob)
        row = _run(deployment, faults=faults)
        row["jam_probability"] = prob
        rows.append(row)
    return rows


def test_ablation_jam_probability(benchmark):
    deployment = uniform_deployment(140, 9, 9, rng=23)
    jammers = random_fault_selection(deployment.num_nodes, 14, exclude=[deployment.source_index], rng=9)
    rows = run_once(benchmark, _ablate_jam_probability, deployment, jammers)
    attach_rows(benchmark, rows, title="Ablation: jammer activation probability (budget fixed)",
                columns=["jam_probability", "rounds", "completion_%", "correct_%"])
    # Jamming never violates authenticity regardless of the jammer's strategy.
    assert all(r["correct_%"] >= 99.9 for r in rows)
    assert all(r["completion_%"] > 90.0 for r in rows)


def _ablate_channel(deployment):
    rows = []
    for channel in ("unitdisk", "friis"):
        row = _run(deployment, channel=channel)
        row["channel"] = channel
        rows.append(row)
    return rows


def test_ablation_channel_model(benchmark):
    deployment = uniform_deployment(140, 9, 9, rng=24)
    rows = run_once(benchmark, _ablate_channel, deployment)
    attach_rows(benchmark, rows, title="Ablation: unit-disk vs Friis/SINR channel",
                columns=["channel", "rounds", "completion_%", "correct_%"])
    # The protocol's guarantees are channel-model independent.
    assert all(r["correct_%"] >= 99.9 for r in rows)
    assert all(r["completion_%"] > 85.0 for r in rows)
