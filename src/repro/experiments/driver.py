"""Generic drivers executing declarative :class:`ExperimentSpec`s.

A driver compiles a resolved spec into :class:`~repro.sim.runner.SweepTask`s
against the component registries and runs them through the existing fast
sweep machinery (:func:`repro.experiments.base.run_points`, and therefore the
parallel :class:`~repro.sim.runner.SweepExecutor` and the content-addressed
:class:`~repro.store.ResultStore`).  Three drivers cover every experiment of
the paper's evaluation:

``sweep``
    The workhorse: cartesian product of the spec's axes, one task per grid
    point, rows built by the registered row builder (``spec.rows``).
``tolerance_search``
    Figure 7's adaptive search: per grid point, find the largest candidate
    fault fraction whose metric stays above a threshold.  Evaluations are
    sequential (each depends on the previous outcome) but the repetitions
    within one evaluation still fan out over the executor.
``dual_mode``
    The payload-flood + secured-digest construction: two coupled runs whose
    results are combined by :func:`repro.core.dualmode.combine_dual_mode`.

Task-identity contract
----------------------
The drivers reproduce the hand-written experiment modules they replaced
*exactly*: same task construction order, same labels, same factory dataclass
instances and scenario fields, and therefore byte-identical
``SweepTask.fingerprint()`` values — every result cached by a pre-redesign
:class:`~repro.store.ResultStore` keeps replaying with zero dispatches.
``tests/test_spec_roundtrip.py`` pins this against a golden file captured
from the PR 4 tree.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Mapping, Optional, Sequence

from ..analysis.metrics import max_tolerated_fraction
from ..registry import DEPLOYMENTS, DRIVERS, FAULT_PLANS, METRICS, register_driver
from ..sim.config import ScenarioConfig
from ..sim.runner import SweepExecutor, SweepTask
from .base import run_points
from .spec import ExperimentSpec, SpecValidationError, render_template

__all__ = ["resolve_context", "run_spec", "describe_spec", "build_sweep_tasks"]


def resolve_context(
    spec: ExperimentSpec,
    *,
    scale: Optional[str] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> dict:
    """The resolved parameter context: params → scale → overrides → derived."""
    context = dict(spec.params)
    if scale is not None:
        if scale not in spec.scales:
            known = ", ".join(spec.scales) or "(none declared)"
            raise SpecValidationError(
                [f"unknown scale {scale!r}; expected one of: {known}"], source=spec.name
            )
        context.update(spec.scales[scale])
    if overrides:
        context.update(overrides)
    for key, template in spec.derived.items():
        context[key] = render_template(template, context)
    return context


def iter_grid(spec: ExperimentSpec, context: Mapping[str, Any]) -> Iterator[dict]:
    """Per-point contexts of the axes' cartesian product, in axis order."""
    names = [axis["name"] for axis in spec.axes]
    values = [list(render_template(axis["values"], context)) for axis in spec.axes]
    for combo in itertools.product(*values):
        point_context = dict(context)
        point_context.update(zip(names, combo))
        for key, template in spec.point_derived.items():
            point_context[key] = render_template(template, point_context)
        yield point_context


def _build_component(registry, template: Any, context: Mapping[str, Any]):
    """Instantiate a registered component from a ``{"kind": ..., **fields}`` template."""
    resolved = render_template(template, context)
    if resolved is None:
        return None
    if not isinstance(resolved, Mapping) or "kind" not in resolved:
        raise SpecValidationError(
            [f"component template must resolve to a mapping with 'kind', got {resolved!r}"]
        )
    params = dict(resolved)
    kind = params.pop("kind")
    return registry.get(kind)(**params)


def _render_label(spec: ExperimentSpec, point_context: Mapping[str, Any]) -> str:
    try:
        return spec.label.format(**point_context)
    except (KeyError, IndexError, AttributeError, ValueError) as exc:
        raise SpecValidationError(
            [f"label template {spec.label!r} failed: {type(exc).__name__}: {exc}"],
            source=spec.name,
        ) from exc


def _build_task(spec: ExperimentSpec, point_context: Mapping[str, Any]) -> SweepTask:
    scenario_kwargs = render_template(spec.scenario, point_context)
    try:
        config = ScenarioConfig(**scenario_kwargs)
    except (TypeError, ValueError) as exc:
        # An unknown key, a value of the wrong type or one outside its range.
        raise SpecValidationError([f"[scenario] {exc}"], source=spec.name) from exc
    return SweepTask(
        label=_render_label(spec, point_context),
        deployment_factory=_build_component(DEPLOYMENTS, spec.deployment, point_context),
        config=config,
        fault_factory=_build_component(FAULT_PLANS, spec.faults, point_context),
        repetitions=int(render_template(spec.repetitions, point_context)),
        base_seed=int(render_template(spec.base_seed, point_context)),
        max_rounds=render_template(spec.max_rounds, point_context),
        extra=dict(render_template(spec.extra, point_context)),
    )


def build_sweep_tasks(spec: ExperimentSpec, context: Mapping[str, Any]) -> list[SweepTask]:
    """Compile the spec's whole grid into sweep tasks (the ``sweep`` driver's plan)."""
    return [_build_task(spec, point_context) for point_context in iter_grid(spec, context)]


@register_driver("sweep")
class SweepDriver:
    """Grid sweep: one task per axes-product point, rows via the row builder."""

    def run(self, spec: ExperimentSpec, context: dict, *, executor=None, store=None) -> list[dict]:
        tasks = build_sweep_tasks(spec, context)
        points = run_points(tasks, executor=executor, store=store)
        return METRICS.get(spec.rows)(context, tasks, points)


@register_driver("tolerance_search")
class ToleranceSearchDriver:
    """Per grid point, search the largest tolerated candidate value (Fig. 7).

    Driver options (all templates over the resolved context):

    * ``candidate`` — the context name each candidate binds to (``"fraction"``);
    * ``candidates`` — the ascending candidate values to try;
    * ``threshold`` — minimum metric value to count as tolerated;
    * ``metric`` — the :class:`~repro.experiments.base.PointResult` attribute
      evaluated against the threshold.

    The search is adaptive (stops at the first failing candidate), so
    evaluations run sequentially; only the repetitions within one evaluation
    fan out over the executor.
    """

    def run(self, spec: ExperimentSpec, context: dict, *, executor=None, store=None) -> list[dict]:
        options = render_template(spec.options, context)
        if "candidates" not in options:
            raise SpecValidationError(
                ["the tolerance_search driver requires options.candidates "
                 "(plus optional candidate/threshold/metric)"],
                source=spec.name,
            )
        candidate_name = options.get("candidate", "fraction")
        candidates = options["candidates"]
        threshold = options.get("threshold", 0.9)
        metric = options.get("metric", "correct_delivery_fraction")

        rows: list[dict] = []
        for point_context in iter_grid(spec, context):
            evaluations: dict[float, float] = {}

            def evaluate(candidate: float, _point_context=point_context) -> float:
                candidate_context = dict(_point_context)
                candidate_context[candidate_name] = candidate
                task = _build_task(spec, candidate_context)
                point = run_points([task], executor=executor, store=store)[0]
                value = getattr(point, metric)
                evaluations[candidate] = value
                return value

            tolerated = max_tolerated_fraction(evaluate, candidates, threshold=threshold)
            row = dict(render_template(spec.extra, point_context))
            row["max_tolerated_%"] = 100.0 * tolerated
            row["evaluated_points"] = len(evaluations)
            rows.append(row)
        return rows


@register_driver("dual_mode")
class DualModeDriver:
    """Payload flood + secured digest (Sections 1 and 6.2), as one summary row.

    Context parameters: ``map_size``, ``density``, ``radius``,
    ``payload_bits``, ``digest_ratio``, ``seed``.  Three logical runs are
    combined: (a) the epidemic flood of the full payload, (b) the
    NeighborWatchRB broadcast of its digest, and (c) a plain epidemic flood
    as the no-security baseline (identical to (a) here, kept separate for
    clarity).  The reported overhead is ``(payload + digest air-time) /
    payload air-time``; payload and digest runs are independent, so a
    parallel executor overlaps them.
    """

    def run(self, spec: ExperimentSpec, context: dict, *, executor=None, store=None) -> list[dict]:
        from ..core.digest import polynomial_digest, recommended_digest_length
        from ..core.dualmode import combine_dual_mode
        from ..topology.deployment import uniform_deployment
        from .factories import FixedDeploymentFactory
        from .metrics import airtime_bits

        required = ("map_size", "density", "radius", "payload_bits", "digest_ratio", "seed")
        missing = [key for key in required if key not in context]
        if missing:
            raise SpecValidationError(
                [f"the dual_mode driver requires params: {', '.join(missing)}"],
                source=spec.name,
            )
        map_size = context["map_size"]
        seed = context["seed"]
        payload_bits = context["payload_bits"]
        num_nodes = max(10, int(round(context["density"] * map_size * map_size)))
        deployment = uniform_deployment(num_nodes, map_size, map_size, rng=seed)

        payload = tuple((i * 7 + 3) % 2 for i in range(payload_bits))
        digest_bits = recommended_digest_length(payload_bits, context["digest_ratio"])
        digest = polynomial_digest(payload, digest_bits)

        payload_config = ScenarioConfig(
            protocol="epidemic",
            radius=context["radius"],
            message_length=payload_bits,
            message=payload,
            seed=seed,
        )
        digest_config = ScenarioConfig(
            protocol="neighborwatch",
            radius=context["radius"],
            message_length=digest_bits,
            message=digest,
            seed=seed + 1,
        )
        factory = FixedDeploymentFactory(deployment)
        tasks = [
            SweepTask(
                label="payload-flood",
                deployment_factory=factory,
                config=payload_config,
                repetitions=1,
                base_seed=seed,
            ),
            SweepTask(
                label="digest-broadcast",
                deployment_factory=factory,
                config=digest_config,
                repetitions=1,
                base_seed=seed + 1,
            ),
        ]
        payload_point, digest_point = run_points(tasks, executor=executor, store=store)
        payload_result = payload_point.runs[0]
        digest_result = digest_point.runs[0]
        combined = combine_dual_mode(payload, payload_result, digest_result)

        payload_airtime = airtime_bits("epidemic", payload_result.completion_rounds, payload_bits)
        digest_airtime = airtime_bits(
            "neighborwatch", digest_result.completion_rounds, digest_bits
        )
        overhead = (payload_airtime + digest_airtime) / max(payload_airtime, 1.0)
        return [
            {
                "num_nodes": num_nodes,
                "payload_bits": payload_bits,
                "digest_bits": digest_bits,
                "payload_rounds": payload_result.completion_rounds,
                "digest_rounds": digest_result.completion_rounds,
                "total_rounds": combined.total_rounds,
                "payload_airtime_bits": payload_airtime,
                "digest_airtime_bits": digest_airtime,
                "overhead_factor": overhead,
                "acceptance_%": 100.0 * combined.acceptance_fraction,
                "correct_%": 100.0 * combined.correctness_fraction,
            }
        ]


def run_spec(
    spec: ExperimentSpec,
    *,
    scale: Optional[str] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    executor: Optional[SweepExecutor] = None,
    store=None,
) -> list[dict]:
    """Resolve ``spec`` (scale + overrides) and execute it through its driver."""
    context = resolve_context(spec, scale=scale, overrides=overrides)
    driver = DRIVERS.get(spec.driver)
    return driver.run(spec, context, executor=executor, store=store)


def _format_bytes(num: int) -> str:
    value = float(num)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(num)} B"  # pragma: no cover - unreachable


def _memory_lines(context: Mapping[str, Any]) -> list[str]:
    """Dense link-state memory estimate lines for ``describe`` output.

    Shown whenever the resolved context pins a concrete node count: the node
    count, what the dense ``N x N`` link state of the configured channel would
    occupy, and which link-state form the engine keeps at that size.
    """
    from ..sim.config import dense_link_state_bytes
    from ..sim.engine import SPATIAL_TILING_AUTO_NODES, default_spatial_tiling

    num_nodes = context.get("num_nodes")
    if not isinstance(num_nodes, int):
        # Density-driven specs resolve the deployed count under another name.
        num_nodes = context.get("num_deployed")
    if not isinstance(num_nodes, int) or num_nodes <= 0:
        return []
    channel = context.get("channel", "unitdisk")
    try:
        dense = dense_link_state_bytes(num_nodes, str(channel))
    except Exception:
        return []
    sparse = default_spatial_tiling(num_nodes)
    kept = "the sparse link state instead" if sparse else "the dense matrix"
    return [
        f"memory: {num_nodes} nodes — dense {channel} link state would be "
        f"{_format_bytes(dense)}",
        f"  the engine keeps {kept} (sparse above {SPATIAL_TILING_AUTO_NODES} nodes)",
    ]


def _tier_lines(context: Mapping[str, Any]) -> list[str]:
    """Execution-tier eligibility lines for ``describe`` output.

    Asks the scenario's channel for its per-capability SoA verdict
    (:meth:`repro.sim.radio.Channel.soa_round_support`) — the same predicate
    the engine's gate aggregates at build time — and prints each
    capability's reason, so a reader sees exactly *which* predicate keeps a
    configuration off the fast tier (e.g. "capture: capture_probability=0.5
    draws are data-dependent ... → scalar").  Purely advisory — the engine
    re-evaluates eligibility at build time.
    """
    from ..sim.radio import FriisChannel, UnitDiskChannel

    channel = str(context.get("channel", "unitdisk"))
    loss = float(context.get("loss_probability", 0.0) or 0.0)
    capture = float(context.get("capture_probability", 0.0) or 0.0)
    radius = float(context.get("radius", 1.0) or 1.0)
    if channel == "unitdisk":
        probe = UnitDiskChannel(
            radius, capture_probability=capture, loss_probability=loss
        )
    elif channel == "friis":
        probe = FriisChannel(radius, loss_probability=loss)
    else:
        return [
            "execution tier: cohort runtime (struct-of-arrays kernels ineligible)",
            f"  - channel: {channel} defines no SoA busy model",
        ]
    support = probe.soa_round_support()
    if support.eligible:
        lines = [
            f"execution tier: struct-of-arrays slot kernels ({support.busy} busy "
            "model; REPRO_SOA_KERNELS=0 falls back to the cohort runtime)"
        ]
        lines.extend(
            f"  {name}: {reason}" for name, _ok, reason in support.verdicts
        )
    else:
        lines = ["execution tier: cohort runtime (struct-of-arrays kernels ineligible)"]
        lines.extend(f"  - {name}: {reason}" for name, reason in support.blockers())
    jammers = context.get("num_jammers") or context.get("jammer_fraction")
    if jammers and support.eligible:
        lines.append(
            "  jammed neighborhoods fall back per-slot to the scalar loop; "
            "unjammed slots stay compiled"
        )
    return lines


def _fabric_lines() -> list[str]:
    """Available executor/store backends for ``describe`` output.

    Listed straight from the registries, so plugins registered by downstream
    code (or the queue backend of the service fabric) show up without edits
    here — the same keys ``--backend`` / ``--store-backend`` accept.
    """
    from ..registry import EXECUTOR_BACKENDS, STORE_BACKENDS

    return [
        f"executor backends: {', '.join(EXECUTOR_BACKENDS.keys())}",
        f"store backends: {', '.join(STORE_BACKENDS.keys())}",
    ]


def describe_spec(spec: ExperimentSpec, *, scale: Optional[str] = None) -> str:
    """A human-readable dump of the resolved spec: parameters, axes, grid size."""
    import json

    lines = [
        f"{spec.name} — {spec.title}",
        f"driver: {spec.driver}    rows: {spec.rows}",
        f"scales: {', '.join(spec.scale_names()) or '(none declared)'}"
        + (f"    showing: {scale}" if scale else "    showing: base params"),
    ]
    context = resolve_context(spec, scale=scale)
    lines.append("resolved parameters:")
    for key, value in context.items():
        lines.append(f"  {key} = {json.dumps(value, default=str)}")
    lines.extend(_memory_lines(context))
    lines.extend(_tier_lines(context))
    lines.extend(_fabric_lines())
    if spec.axes:
        lines.append("axes (cartesian product, in order):")
        total = 1
        for axis in spec.axes:
            values = list(render_template(axis["values"], context))
            total *= max(1, len(values))
            lines.append(f"  {axis['name']}: {json.dumps(values, default=str)}")
        label = "search points" if spec.driver == "tolerance_search" else "tasks"
        lines.append(f"grid: {total} {label}")
        if spec.driver == "tolerance_search":
            candidates = list(
                render_template(spec.options, context).get("candidates", ())
            )
            lines.append(f"candidates per search point: {json.dumps(candidates, default=str)}")
        if spec.driver == "sweep":
            tasks = build_sweep_tasks(spec, context)
            repetitions = sum(task.repetitions for task in tasks)
            lines.append(f"labels: {', '.join(task.label for task in tasks[:8])}"
                         + (" ..." if len(tasks) > 8 else ""))
            lines.append(f"repetitions: {repetitions} simulation runs in total")
    if spec.options:
        lines.append(f"options: {json.dumps(render_template(spec.options, context), default=str)}")
    return "\n".join(lines)
