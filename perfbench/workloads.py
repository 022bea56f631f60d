"""The benchmark's four workloads, each defined by explicit parameters.

Every workload is a closed loop: one caller in one process runs one
simulation at a time (the sweeps through a serial ``SweepExecutor`` — no
pool, no worker daemons), on the process-default execution tiers.

``--seed`` chooses a workload's inputs, deterministically:

* the two sweeps always run the same set of simulations, so every output is
  pinned by a reference hash; the seed fixes the order their parts run in;
* the two single simulations always run one pinned deployment (seed 5).
  Another deployment is other work: at 10^4 nodes the epidemic flood's
  rounds per second differ by 20% between deployments 2 and 4, more than
  the bound a run must hold, so the seed does not choose it.

The sizes are cut from the layer-split captures so that one sample takes a
few seconds and a measured run holds several samples; what each workload is
for is written next to it.
"""

from __future__ import annotations

import math
import random

#: The eight paper experiments of ``benchmarks/capture.py``'s suite.
SUITE = ("FIG5", "JAM", "FIG6", "FIG7", "CLUST", "MAPSZ", "EPID", "DUAL")

#: ``sweep-small`` — the figure-regenerating user: every experiment at
#: ``scale="small"`` into one fresh ``ResultStore``, many short simulations
#: of 100–600 nodes over mixed channels and adversaries, so dispatch,
#: small-N construction and store writes are a visible share.  FIG5 drops
#: its density-1.6 points: their two MultiPathRB(t=1) repetitions are two
#: thirds of the whole suite's time, and ``multipath-lying`` already covers
#: that kernel.  The other seven experiments run exactly as in BENCH_10.
SUITE_OVERRIDES = {"FIG5": {"densities": (0.8,)}}

#: ``multipath-lying`` — MultiPathRB(t=2) under lying devices, almost all run
#: phase: the SoA stream kernel and per-device ``MultiPathNode`` commit
#: drains.  These are ``LyingSpec.small_multipath()``'s parameters, given to
#: ``run_spec(FIG6, overrides=...)``.  A sample runs the sweep's 20% liar
#: point, both its repetitions (seeds 300 and 301) one part each, so every
#: record is one the full sweep produces.  The 0% and 3% points take 9–12 s
#: per repetition, too long to repeat within a run; at 20% a sample takes
#: about 6 s.
LYING_MULTIPATH = {
    "map_size": 8.0,
    "num_nodes": 110,
    "radius": 3.0,
    "message_length": 2,
    "fractions": (0.0, 0.03, 0.2),
    "protocols": ({"label": "MultiPathRB(t=2)", "protocol": "multipath", "tolerance": 2},),
    "clustered": False,
    "repetitions": 2,
    "base_seed": 300,
}
LYING_FRACTION = 0.2
LYING_SEEDS = (300, 301)

#: Single simulations on unit disk, built with ``build_simulation`` and run
#: with ``Simulation.run``.  ``max_rounds`` is a generous cap; every pinned
#: input delivers long before it.
SINGLE = {
    # Construction-dominated like epidemic-unitdisk-100k (schedule
    # colouring, CSR link state, SlotPlan and the SoA compile outweigh the
    # run), at a size one sample can repeat.  Uses the SoA tier for its
    # compile step more than for its kernels.
    "epidemic-10k": {
        "protocol": "epidemic",
        "num_nodes": 10_000,
        "density": 0.125,
        "radius": 6.0,
        "message_length": 4,
        "capture_probability": 0.0,
        "max_rounds": 100_000,
        "seed": 5,
    },
    # The configuration the SoA tier refuses: capture draws depend on the
    # data, so the run goes through the cohort runtime and the scalar
    # channel loop (nw-unitdisk-1200's density, twice the nodes).
    "nw-capture-2400": {
        "protocol": "neighborwatch",
        "num_nodes": 2400,
        "density": 3.0,
        "radius": 4.0,
        "message_length": 4,
        "capture_probability": 0.3,
        "max_rounds": 200_000,
        "seed": 5,
    },
}

SWEEPS = ("sweep-small", "multipath-lying")
WORKLOADS = SWEEPS + tuple(SINGLE)

_CONSTRUCTION = (
    "topology.deploy",
    "core.schedule.build",
    "sim.builder.build_simulation",
    "sim.linkstate.build",
    "sim.plan.compile",
    "sim.engine.run",
)
_SWEEP = ("sim.runner.repetition", "sim.runner.dispatch", "experiments.run_spec", "store.put")

#: Spans each workload must fire in its traced sample (the coverage check).
EXPECTED_SPANS = {
    "sweep-small": _CONSTRUCTION + _SWEEP + ("sim.soa.compile", "sim.soa.run", "sim.radio.resolve"),
    "multipath-lying": _CONSTRUCTION + _SWEEP + ("sim.soa.compile", "sim.soa.run"),
    "epidemic-10k": _CONSTRUCTION + ("sim.soa.compile", "sim.soa.run"),
    "nw-capture-2400": _CONSTRUCTION + ("sim.batch.compile", "sim.batch.run", "sim.radio.resolve"),
}


def sweep_parts(workload: str, seed: int) -> list[tuple[str, str, object, dict]]:
    """``(part key, experiment id, scale, overrides)`` in the seed's order."""
    order = random.Random(seed)
    if workload == "sweep-small":
        return [
            (experiment, experiment, "small", SUITE_OVERRIDES.get(experiment, {}))
            for experiment in order.sample(SUITE, len(SUITE))
        ]
    if workload == "multipath-lying":
        return [
            (
                f"{LYING_FRACTION}@{seed}",
                "FIG6",
                None,
                {**LYING_MULTIPATH, "fractions": (LYING_FRACTION,), "repetitions": 1, "base_seed": seed},
            )
            for seed in order.sample(LYING_SEEDS, len(LYING_SEEDS))
        ]
    raise KeyError(workload)


def map_side(params: dict) -> float:
    """Side of the square map that gives ``params``' node density."""
    return math.sqrt(params["num_nodes"] / params["density"])
