"""Assemble deployments, protocols, faults and channels into runnable simulations.

This is the main user-facing entry point of the library: given a
:class:`~repro.topology.deployment.Deployment`, a
:class:`~repro.sim.config.ScenarioConfig` and an optional
:class:`~repro.sim.config.FaultPlan`, :func:`build_simulation` wires up the
schedule, the channel model, one protocol instance per device (honest,
jamming, lying or crashed) and returns a ready-to-run
:class:`~repro.sim.engine.Simulation`.  :func:`run_scenario` is the one-call
convenience wrapper used by the examples, the experiments and most tests.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from typing import Optional

from ..adversary.jammer import VetoJammer
from ..adversary.liar import fake_message_for
from ..core.protocol import NodeContext, Protocol
from ..core.schedule import Schedule
from ..topology.deployment import Deployment
from .config import FaultPlan, ScenarioConfig
from .engine import Simulation
from .events import EventLog
from .radio import Channel
from .results import RunResult, validate_metadata
from .rng import RngFactory
from .node import SimNode

__all__ = ["build_schedule", "build_channel", "build_simulation", "run_scenario"]


def build_schedule(deployment: Deployment, config: ScenarioConfig) -> Schedule:
    """Construct the TDMA schedule appropriate for the configured protocol."""
    return config.protocol_plugin().build_schedule(deployment, config)


def build_channel(config: ScenarioConfig) -> Channel:
    """Construct the configured channel model."""
    return config.channel_plugin().build(config)


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector paused.

    A build allocates hundreds of thousands of long-lived objects (records,
    bound methods, per-device specs), and with the collector on it pays for
    hundreds of young and a few full collections that find nothing to
    free.  On the way out the caller's setting is restored, and a collector
    that was on runs ``gc.collect(1)``: that moves what the build allocated
    out of the young generations at once, so the run's first young
    collections do not scan all of it.  A finished simulation holds no
    reference cycle, so a sweep still frees each one by reference counting
    while the next one builds; ``gc.freeze()`` is not used, because it
    would keep every finished simulation alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()
            gc.collect(1)


def build_simulation(
    deployment: Deployment,
    config: ScenarioConfig,
    faults: Optional[FaultPlan] = None,
    *,
    trace: Optional[EventLog] = None,
    use_cohort_runtime: Optional[bool] = None,
    use_spatial_tiling: Optional[bool] = None,
    use_soa_kernels: Optional[bool] = None,
) -> Simulation:
    """Wire a deployment, a scenario and a fault plan into a Simulation.

    ``use_cohort_runtime``, ``use_spatial_tiling`` and ``use_soa_kernels``
    are forwarded to :class:`~repro.sim.engine.Simulation` (``None`` =
    process default): the first selects between shared-cohort and per-device
    execution of the protocol state machines, the second between the sparse
    link-state tier and the dense ``N x N`` matrices, the
    third enables the struct-of-arrays slot kernels for eligible
    protocol/channel combinations.  All three are pure memory/throughput
    knobs — results are bit-identical either way, so they are *not* part of
    :class:`ScenarioConfig` and never enter store fingerprints.

    The cyclic garbage collector is paused for the build and the caller's
    setting restored afterwards, also when the build raises
    (:func:`_collector_paused`).
    """
    with _collector_paused():
        faults = faults if faults is not None else FaultPlan()
        faults.validate_for(deployment.num_nodes, deployment.source_index)

        plugin = config.protocol_plugin()
        message = config.message_bits
        fake = tuple(faults.fake_message) if faults.fake_message is not None else fake_message_for(message)
        rng_factory = RngFactory(config.seed)

        schedule = build_schedule(deployment, config)
        channel = build_channel(config)

        crashed = set(faults.crashed)
        jammers = set(faults.jammers)
        liars = set(faults.liars)

        nodes: list[SimNode] = []
        # One bulk conversion to Python floats instead of per-node NumPy scalar
        # extraction (identical values; tolist round-trips float64 exactly).
        position_rows = deployment.positions.tolist()
        for node_id in range(deployment.num_nodes):
            row = position_rows[node_id]
            position = (row[0], row[1])
            protocol: Optional[Protocol]
            honest = True
            if node_id in crashed:
                protocol = None
            elif node_id in jammers:
                honest = False
                protocol = VetoJammer(
                    faults.jammer_budget,
                    jam_probability=faults.jam_probability,
                    rng=rng_factory.node_generator(node_id),
                )
            elif node_id in liars:
                honest = False
                protocol = plugin.build_liar(config, fake)
            else:
                protocol = plugin.build(config)

            if protocol is not None:
                is_source = node_id == deployment.source_index
                context = NodeContext(
                    node_id=node_id,
                    position=position,
                    radius=config.radius,
                    schedule=schedule,
                    message_length=config.message_length,
                    is_source=is_source,
                    source_message=message if is_source else None,
                    rng_seed=config.seed,
                )
                protocol.setup(context)
            nodes.append(SimNode(node_id=node_id, position=position, protocol=protocol, honest=honest))

        return Simulation(
            nodes,
            schedule,
            channel,
            message,
            rng=rng_factory.generator("channel"),
            trace=trace,
            use_cohort_runtime=use_cohort_runtime,
            use_spatial_tiling=use_spatial_tiling,
            use_soa_kernels=use_soa_kernels,
        )


#: Process-wide accumulation of the SoA tier's per-run counters, folded in by
#: every :func:`run_scenario` call.  Serial and in-process sweeps surface it
#: in the CLI run summary; process-pool workers accumulate (and discard) their
#: own copies, which is acceptable for an advisory observability line.
_soa_telemetry: dict = {}


def soa_telemetry_snapshot() -> dict:
    """Accumulated SoA-kernel counters of this process's ``run_scenario`` calls.

    Keys mirror ``plan_cache_info()["soa_kernels"]``: ``slots_run``,
    ``scalar_fallbacks``, ``cycles_fast_forwarded``, the stream groups'
    occurrence memo counters (``occurrence_hits``, ``occurrence_misses``,
    ``occurrence_evictions``) and the ``busy_cache_*`` counters, summed
    across runs.  A stream occurrence is one occurrence-memo lookup, and
    only its misses consult the per-mask busy memo, so the ``busy_cache_*``
    counters count the lookups made on occurrence misses only.  Empty until
    a run executes on the SoA tier.
    """
    return dict(_soa_telemetry)


def run_scenario(
    deployment: Deployment,
    config: ScenarioConfig,
    faults: Optional[FaultPlan] = None,
    *,
    trace: Optional[EventLog] = None,
    max_rounds: Optional[int] = None,
    use_cohort_runtime: Optional[bool] = None,
    use_spatial_tiling: Optional[bool] = None,
    use_soa_kernels: Optional[bool] = None,
    info_sink: Optional[dict] = None,
) -> RunResult:
    """Build and run a scenario to completion (or to the round cap).

    When ``info_sink`` is given, the simulation's post-run
    :meth:`~repro.sim.engine.Simulation.plan_cache_info` snapshot is copied
    into it — runtime-tier telemetry (cohort/SoA/link-state counters) for
    benchmark captures, without widening the closed result-metadata schema.
    """
    simulation = build_simulation(
        deployment,
        config,
        faults,
        trace=trace,
        use_cohort_runtime=use_cohort_runtime,
        use_spatial_tiling=use_spatial_tiling,
        use_soa_kernels=use_soa_kernels,
    )
    faults = faults if faults is not None else FaultPlan()
    if max_rounds is None:
        extent = math.hypot(deployment.width, deployment.height)
        bits_per_hop = config.protocol_plugin().bits_per_hop(
            config, simulation.schedule.num_slots
        )
        max_rounds = config.derive_max_rounds(
            extent,
            simulation.schedule.rounds_per_cycle,
            faults.total_jam_budget(),
            bits_per_hop=bits_per_hop,
        )
    result = simulation.run(max_rounds)
    info = simulation.plan_cache_info()
    soa = info["soa_kernels"]
    if soa.get("enabled"):
        for key in (
            "slots_run",
            "scalar_fallbacks",
            "cycles_fast_forwarded",
            "occurrence_hits",
            "occurrence_misses",
            "occurrence_evictions",
            "busy_cache_hits",
            "busy_cache_misses",
            "busy_cache_evictions",
        ):
            _soa_telemetry[key] = _soa_telemetry.get(key, 0) + soa[key]
    if info_sink is not None:
        info_sink.update(info)
    # The metadata schema is closed: every key written here is declared in
    # repro.sim.results.METADATA_FIELDS, and validate_metadata rejects drift
    # so that serialized records keep a stable shape.
    result.metadata.update(
        validate_metadata(
            {
                "protocol": config.protocol,
                "radius": float(config.radius),
                "message_length": config.message_length,
                "num_nodes": deployment.num_nodes,
                "density": deployment.density,
                "seed": config.seed,
                "max_rounds": int(max_rounds),
                "rounds_per_cycle": simulation.schedule.rounds_per_cycle,
                "num_slots": simulation.schedule.num_slots,
                "num_crashed": len(faults.crashed),
                "num_jammers": len(faults.jammers),
                "num_liars": len(faults.liars),
            }
        )
    )
    return result
