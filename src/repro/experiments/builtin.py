"""The paper's eight experiments as declarative :class:`ExperimentSpec` data.

Each spec registers into ``repro.registry.EXPERIMENT_SPECS`` under its
experiment id, in the order of README.md's experiment table.  Parameter values — including their
*types* (``4.0`` vs ``4``) — are copied verbatim from the retired experiment
modules: the drivers compile these specs into the exact same
:class:`~repro.sim.runner.SweepTask`s, so every ``fingerprint()`` a
pre-redesign :class:`~repro.store.ResultStore` cached keeps matching
(``tests/test_spec_roundtrip.py`` pins this against a golden capture).

Two ``scales`` each: ``paper`` approximates the paper's evaluation (hours
of CPU), ``small`` is a scaled-down sweep with the same qualitative shape
(tens of seconds) used by the test suite and the benchmark harness.
"""

from __future__ import annotations

from ..registry import register_experiment_spec
from .spec import ExperimentSpec

__all__ = [
    "FIG5_SPEC",
    "JAM_SPEC",
    "FIG6_SPEC",
    "FIG7_SPEC",
    "CLUST_SPEC",
    "MAPSZ_SPEC",
    "EPID_SPEC",
    "DUAL_SPEC",
]


def _proto(label: str, protocol: str, tolerance: int) -> dict:
    return {"label": label, "protocol": protocol, "tolerance": tolerance}


_NW = _proto("NeighborWatchRB", "neighborwatch", 0)
_NW2 = _proto("NeighborWatchRB-2vote", "neighborwatch2", 0)
_MP3 = _proto("MultiPathRB(t=3)", "multipath", 3)
_MP5 = _proto("MultiPathRB(t=5)", "multipath", 5)

_PROTO_SCENARIO = {
    "protocol": "$proto['protocol']",
    "radius": "$radius",
    "message_length": "$message_length",
    "multipath_tolerance": "$proto['tolerance']",
}

_UNIFORM_FULL_MAP = {
    "kind": "uniform",
    "num_nodes": "$num_nodes",
    "width": "$map_size",
    "height": "$map_size",
}


FIG5_SPEC = register_experiment_spec(
    ExperimentSpec(
        name="FIG5",
        title="Crash resilience: completion vs active-device density (Fig. 5)",
        params={
            "map_size": 24.0,
            "deployed_density": 3.0,
            "densities": (0.75, 1.0, 1.5, 2.0),
            "radius": 4.0,
            "message_length": 4,
            "protocols": (_NW, _NW2, _MP3, _MP5),
            "repetitions": 3,
            "base_seed": 100,
        },
        scales={
            "paper": {
                "map_size": 24.0,
                "deployed_density": 3.0,
                "densities": (0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0),
                "radius": 4.0,
                "message_length": 4,
                "repetitions": 6,
            },
            "small": {
                "map_size": 8.0,
                "deployed_density": 2.2,
                "densities": (0.8, 1.6),
                "radius": 3.0,
                "message_length": 2,
                "protocols": (_NW, _NW2, _proto("MultiPathRB(t=1)", "multipath", 1)),
                "repetitions": 2,
            },
        },
        derived={"num_deployed": "$int(round(deployed_density * map_size * map_size))"},
        axes=(
            {"name": "proto", "values": "$protocols"},
            {"name": "density", "values": "$densities"},
        ),
        label="{proto[label]}@density={density}",
        scenario=_PROTO_SCENARIO,
        deployment={
            "kind": "uniform",
            "num_nodes": "$num_deployed",
            "width": "$map_size",
            "height": "$map_size",
        },
        faults={"kind": "target_density_crash", "density": "$density"},
        extra={"protocol": "$proto['label']", "density": "$density"},
    )
)


JAM_SPEC = register_experiment_spec(
    ExperimentSpec(
        name="JAM",
        title="Jamming: completion time vs adversarial budget (Sec. 6.1)",
        params={
            "map_size": 24.0,
            "num_nodes": 800,
            "radius": 4.0,
            "message_length": 4,
            "protocol": "neighborwatch",
            "jammer_fraction": 0.10,
            "jam_probability": 0.2,
            "budgets": (0, 5, 10, 20),
            "repetitions": 3,
            "base_seed": 200,
        },
        scales={
            "paper": {"budgets": (0, 5, 10, 20, 40, 80), "repetitions": 6},
            "small": {
                "map_size": 10.0,
                "num_nodes": 150,
                "radius": 3.0,
                "message_length": 2,
                "budgets": (0, 4, 8),
                "repetitions": 2,
            },
        },
        derived={"num_jammers": "$fraction_to_count(num_nodes, jammer_fraction)"},
        axes=({"name": "budget", "values": "$budgets"},),
        label="budget={budget}",
        scenario={
            "protocol": "$protocol",
            "radius": "$radius",
            "message_length": "$message_length",
        },
        deployment=_UNIFORM_FULL_MAP,
        faults={
            "kind": "budgeted_jammer",
            "count": "$num_jammers",
            "budget": "$int(budget)",
            "jam_probability": "$jam_probability",
        },
        extra={"budget": "$budget"},
    )
)


FIG6_SPEC = register_experiment_spec(
    ExperimentSpec(
        name="FIG6",
        title="Lying devices: correctness vs Byzantine fraction (Fig. 6)",
        params={
            "map_size": 20.0,
            "num_nodes": 600,
            "radius": 4.0,
            "message_length": 4,
            "fractions": (0.0, 0.025, 0.05, 0.10, 0.15),
            "protocols": (_NW, _NW2, _MP3, _MP5),
            "clustered": False,
            "num_clusters": 8,
            "repetitions": 3,
            "base_seed": 300,
        },
        scales={
            "paper": {
                "fractions": (0.0, 0.01, 0.025, 0.05, 0.075, 0.10, 0.15, 0.20),
                "repetitions": 6,
            },
            "small": {
                "map_size": 10.0,
                "num_nodes": 150,
                "radius": 3.0,
                "message_length": 2,
                "fractions": (0.0, 0.05, 0.20),
                "protocols": (_NW, _NW2),
                "repetitions": 2,
            },
        },
        derived={
            "deployment_spec": "$({'kind': 'clustered', 'num_nodes': num_nodes, "
            "'width': map_size, 'height': map_size, 'num_clusters': num_clusters} "
            "if clustered else {'kind': 'uniform', 'num_nodes': num_nodes, "
            "'width': map_size, 'height': map_size})",
        },
        axes=(
            {"name": "proto", "values": "$protocols"},
            {"name": "fraction", "values": "$fractions"},
        ),
        label="{proto[label]}@{fraction:.1%}",
        scenario=_PROTO_SCENARIO,
        deployment="$deployment_spec",
        faults={"kind": "random_liar", "count": "$fraction_to_count(num_nodes, fraction)"},
        extra={"protocol": "$proto['label']", "byzantine_fraction": "$fraction"},
    )
)


FIG7_SPEC = register_experiment_spec(
    ExperimentSpec(
        name="FIG7",
        title="Max tolerated Byzantine fraction vs density (Fig. 7)",
        driver="tolerance_search",
        params={
            "map_size": 20.0,
            "densities": (0.75, 1.5, 3.0),
            "candidate_fractions": (0.0, 0.025, 0.05, 0.10, 0.15, 0.25),
            "radius": 4.0,
            "message_length": 4,
            "threshold": 0.9,
            "protocols": (_NW, _NW2),
            "repetitions": 2,
            "base_seed": 400,
        },
        scales={
            "paper": {
                "densities": (0.75, 1.5, 3.0, 5.0, 9.0),
                "candidate_fractions": (0.0, 0.025, 0.05, 0.075, 0.10, 0.15, 0.20, 0.25, 0.30),
                "protocols": (_NW, _NW2, _MP3),
                "repetitions": 6,
            },
            "small": {
                "map_size": 9.0,
                "densities": (1.2, 2.5),
                "candidate_fractions": (0.0, 0.05, 0.15),
                "radius": 3.0,
                "message_length": 2,
                "protocols": (_NW,),
                "repetitions": 1,
            },
        },
        axes=(
            {"name": "proto", "values": "$protocols"},
            {"name": "density", "values": "$densities"},
        ),
        point_derived={"num_nodes": "$max(10, int(round(density * map_size * map_size)))"},
        label="{fraction:.1%}",
        scenario=_PROTO_SCENARIO,
        deployment=_UNIFORM_FULL_MAP,
        faults={
            "kind": "random_liar",
            "count": "$fraction_to_count(num_nodes, fraction)",
            "seed_offset": 17,
        },
        extra={"protocol": "$proto['label']", "density": "$density", "num_nodes": "$num_nodes"},
        options={
            "candidate": "fraction",
            "candidates": "$candidate_fractions",
            "threshold": "$threshold",
            "metric": "correct_delivery_fraction",
        },
    )
)


CLUST_SPEC = register_experiment_spec(
    ExperimentSpec(
        name="CLUST",
        title="Clustered vs uniform deployments (Sec. 6.2)",
        params={
            "map_size": 30.0,
            "num_nodes": 1200,
            "num_clusters": 10,
            "radius": 4.0,
            "message_length": 4,
            "protocol": "neighborwatch",
            "lying_fractions": (0.0, 0.05),
            "repetitions": 3,
            "base_seed": 500,
        },
        scales={
            "paper": {"lying_fractions": (0.0, 0.05, 0.10), "repetitions": 6},
            "small": {
                "map_size": 12.0,
                "num_nodes": 200,
                "num_clusters": 5,
                "radius": 3.0,
                "message_length": 2,
                "lying_fractions": (0.0, 0.05),
                "repetitions": 2,
            },
        },
        axes=(
            {"name": "kind", "values": ("uniform", "clustered")},
            {"name": "fraction", "values": "$lying_fractions"},
        ),
        label="{kind}@{fraction:.0%}",
        scenario={
            "protocol": "$protocol",
            "radius": "$radius",
            "message_length": "$message_length",
        },
        deployment="$({'kind': 'clustered', 'num_nodes': num_nodes, 'width': map_size, "
        "'height': map_size, 'num_clusters': num_clusters} if kind == 'clustered' else "
        "{'kind': 'uniform', 'num_nodes': num_nodes, 'width': map_size, 'height': map_size})",
        faults={
            "kind": "random_liar",
            "count": "$fraction_to_count(num_nodes, fraction)",
            "seed_offset": 23,
        },
        extra={"deployment": "$kind", "byzantine_fraction": "$fraction"},
        rows="clustered_connectivity",
    )
)


MAPSZ_SPEC = register_experiment_spec(
    ExperimentSpec(
        name="MAPSZ",
        title="Scaling with map size / diameter (Sec. 6.2, Thm. 5)",
        params={
            "map_sizes": (10.0, 15.0, 20.0),
            "density": 1.25,
            "radius": 3.0,
            "message_length": 5,
            "protocol": "neighborwatch",
            "repetitions": 3,
            "base_seed": 600,
        },
        scales={
            "paper": {"map_sizes": (30.0, 40.0, 50.0), "repetitions": 6},
            "small": {
                "map_sizes": (8.0, 12.0),
                "density": 1.5,
                "message_length": 2,
                "repetitions": 2,
            },
        },
        axes=({"name": "size", "values": "$map_sizes"},),
        point_derived={"num_nodes": "$max(10, int(round(density * size * size)))"},
        label="map={size:.0f}",
        scenario={
            "protocol": "$protocol",
            "radius": "$radius",
            "message_length": "$message_length",
        },
        deployment={
            "kind": "uniform",
            "num_nodes": "$num_nodes",
            "width": "$size",
            "height": "$size",
        },
        extra={"map_size": "$size"},
        rows="map_size_scaling",
    )
)


EPID_SPEC = register_experiment_spec(
    ExperimentSpec(
        name="EPID",
        title="Comparison with the epidemic baseline (Sec. 6.2)",
        params={
            "map_sizes": (15.0,),
            "density": 1.25,
            "radius": 3.0,
            "message_length": 5,
            "include_multipath": False,
            "multipath_tolerance": 1,
            "repetitions": 3,
            "base_seed": 700,
        },
        scales={
            "paper": {
                "map_sizes": (30.0, 40.0, 50.0),
                "repetitions": 6,
                "include_multipath": True,
            },
            "small": {
                "map_sizes": (10.0,),
                "density": 1.5,
                "message_length": 3,
                "repetitions": 2,
            },
        },
        derived={
            "protocols": "$({'label': 'epidemic', 'protocol': 'epidemic', 'tolerance': 0}, "
            "{'label': 'NeighborWatchRB', 'protocol': 'neighborwatch', 'tolerance': 0}) "
            "+ (({'label': fmt('MultiPathRB(t={})', multipath_tolerance), "
            "'protocol': 'multipath', 'tolerance': multipath_tolerance},) "
            "if include_multipath else ())",
        },
        axes=(
            {"name": "size", "values": "$map_sizes"},
            {"name": "proto", "values": "$protocols"},
        ),
        point_derived={"num_nodes": "$max(10, int(round(density * size * size)))"},
        label="{proto[label]}@map={size:.0f}",
        scenario=_PROTO_SCENARIO,
        deployment={
            "kind": "uniform",
            "num_nodes": "$num_nodes",
            "width": "$size",
            "height": "$size",
        },
        extra={
            "map_size": "$size",
            "protocol": "$proto['label']",
            "protocol_id": "$proto['protocol']",
        },
        rows="epidemic_slowdown",
    )
)


DUAL_SPEC = register_experiment_spec(
    ExperimentSpec(
        name="DUAL",
        title="Dual-mode protocol: payload flood + secured digest (Sec. 1, 6.2)",
        driver="dual_mode",
        params={
            "map_size": 12.0,
            "density": 1.5,
            "radius": 3.0,
            "payload_bits": 20,
            "digest_ratio": 0.1,
            "seed": 800,
        },
        scales={
            "paper": {
                "map_size": 30.0,
                "density": 1.25,
                "payload_bits": 50,
                "digest_ratio": 0.1,
            },
            "small": {
                "map_size": 9.0,
                "density": 1.5,
                "payload_bits": 10,
                "digest_ratio": 0.2,
            },
        },
    )
)
