"""Declarative experiment specifications.

An :class:`ExperimentSpec` is *pure data*: parameters, scale overrides, sweep
axes and component templates that a generic driver (see
:mod:`repro.experiments.driver`) compiles into
:class:`~repro.sim.runner.SweepTask`s against the open component registries
of :mod:`repro.registry`.  Adding a scenario no longer means writing a module
— it means writing ~20 lines of JSON or TOML and running them with
``python -m repro.experiments run --spec FILE``.

Templates and expressions
-------------------------
Anywhere inside ``params``/``derived``/``scenario``/``deployment``/``faults``
/``extra``/axis values, a string starting with ``$`` is an *expression*
evaluated over the resolved parameter context (escape a literal leading
dollar as ``$$``).  Expressions are a restricted, side-effect-free subset of
Python: literals, arithmetic, comparisons, conditionals, tuple/list/dict
displays, subscripts and a whitelist of functions (``int``, ``float``,
``round``, ``abs``, ``max``, ``min``, ``len``, ``str``, ``bool``, ``ceil``,
``floor``, ``fmt`` — ``str.format`` — and ``fraction_to_count``).  ``label``
is a plain ``str.format`` template over the same context.

Resolution order (see :func:`repro.experiments.driver.resolve_context`):
``params`` → scale overrides (``scales[scale]``) → caller overrides →
``derived`` (in declaration order) → per-grid-point axis bindings →
``point_derived``.

Serialization
-------------
Specs round-trip losslessly through JSON and TOML: ``to_dict``/``from_dict``,
``to_json``/``from_json``, ``to_toml``/``from_toml``, plus :func:`load_spec`
for files.  On construction every nested sequence is normalized to a tuple
and every mapping to a plain dict, so a spec compares equal to its reparsed
self.  TOML cannot represent ``None``: ``to_toml`` simply omits top-level
``None`` fields (they are defaults) and rejects nested ``None`` values.

Malformed inputs raise :class:`SpecValidationError`, which carries the full
list of problems in ``.errors`` — the CLI prints them all, not just the
first.
"""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from ..adversary.placement import fraction_to_count

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SpecValidationError",
    "ExperimentSpec",
    "evaluate_expression",
    "render_template",
    "load_spec",
]

SPEC_SCHEMA_VERSION = 1

#: Functions callable from spec expressions.  Deliberately tiny: everything a
#: spec computes must stay reproducible from the spec text alone.
SAFE_FUNCTIONS: Mapping[str, Callable] = {
    "int": int,
    "float": float,
    "round": round,
    "abs": abs,
    "max": max,
    "min": min,
    "len": len,
    "str": str,
    "bool": bool,
    "ceil": math.ceil,
    "floor": math.floor,
    "fmt": lambda template, *args, **kwargs: str(template).format(*args, **kwargs),
    "fraction_to_count": fraction_to_count,
}


class SpecValidationError(ValueError):
    """A spec (or spec file) is malformed; ``errors`` lists every problem."""

    def __init__(self, errors: Sequence[str], *, source: Optional[str] = None) -> None:
        self.errors = list(errors)
        self.source = source
        prefix = f"{source}: " if source else ""
        super().__init__(prefix + "; ".join(self.errors))


# -- the expression language --------------------------------------------------------------
_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a**b,
}
_COMPARES = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
}


def evaluate_expression(expression: str, context: Mapping[str, Any]) -> Any:
    """Evaluate one spec expression over ``context`` (see the module docstring)."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise SpecValidationError([f"invalid expression {expression!r}: {exc.msg}"]) from exc
    try:
        return _eval_node(tree.body, context)
    except SpecValidationError:
        raise
    except Exception as exc:
        raise SpecValidationError(
            [f"error evaluating {expression!r}: {type(exc).__name__}: {exc}"]
        ) from exc


def _eval_node(node: ast.AST, ctx: Mapping[str, Any]) -> Any:
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in ctx:
            return ctx[node.id]
        if node.id in SAFE_FUNCTIONS:
            return SAFE_FUNCTIONS[node.id]
        known = sorted(set(ctx) | set(SAFE_FUNCTIONS))
        raise SpecValidationError(
            [f"unknown name {node.id!r} in expression; known names: {', '.join(known)}"]
        )
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval_node(node.left, ctx), _eval_node(node.right, ctx))
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return -_eval_node(node.operand, ctx)
        if isinstance(node.op, ast.UAdd):
            return +_eval_node(node.operand, ctx)
        if isinstance(node.op, ast.Not):
            return not _eval_node(node.operand, ctx)
    if isinstance(node, ast.BoolOp):
        if isinstance(node.op, ast.And):
            result = True
            for value in node.values:
                result = _eval_node(value, ctx)
                if not result:
                    return result
            return result
        result = False
        for value in node.values:
            result = _eval_node(value, ctx)
            if result:
                return result
        return result
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, ctx)
        for op, comparator in zip(node.ops, node.comparators):
            if type(op) not in _COMPARES:
                break
            right = _eval_node(comparator, ctx)
            if not _COMPARES[type(op)](left, right):
                return False
            left = right
        else:
            return True
        raise SpecValidationError([f"unsupported comparison {ast.dump(node)}"])
    if isinstance(node, ast.IfExp):
        return (
            _eval_node(node.body, ctx)
            if _eval_node(node.test, ctx)
            else _eval_node(node.orelse, ctx)
        )
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in SAFE_FUNCTIONS:
            raise SpecValidationError(
                [
                    "only whitelisted functions are callable in spec expressions: "
                    + ", ".join(sorted(SAFE_FUNCTIONS))
                ]
            )
        func = SAFE_FUNCTIONS[node.func.id]
        args = [_eval_node(arg, ctx) for arg in node.args]
        kwargs = {kw.arg: _eval_node(kw.value, ctx) for kw in node.keywords if kw.arg}
        return func(*args, **kwargs)
    if isinstance(node, ast.Subscript):
        return _eval_node(node.value, ctx)[_eval_node(node.slice, ctx)]
    if isinstance(node, ast.List):
        return [_eval_node(item, ctx) for item in node.elts]
    if isinstance(node, ast.Tuple):
        return tuple(_eval_node(item, ctx) for item in node.elts)
    if isinstance(node, ast.Dict):
        return {
            _eval_node(key, ctx): _eval_node(value, ctx)
            for key, value in zip(node.keys, node.values)
            if key is not None
        }
    raise SpecValidationError(
        [f"unsupported syntax in spec expression: {type(node).__name__}"]
    )


def render_template(value: Any, context: Mapping[str, Any]) -> Any:
    """Recursively resolve ``$``-expressions inside ``value`` against ``context``."""
    if isinstance(value, str):
        if value.startswith("$$"):
            return value[1:]
        if value.startswith("$"):
            return evaluate_expression(value[1:], context)
        return value
    if isinstance(value, Mapping):
        return {key: render_template(item, context) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [render_template(item, context) for item in value]
    return value


# -- normalization ------------------------------------------------------------------------
def _normalize(value: Any) -> Any:
    """Canonical immutable-ish form: sequences → tuples, mappings → plain dicts."""
    if isinstance(value, Mapping):
        return {str(key): _normalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item) for item in value)
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment as data; executed by a registered driver.

    Fields
    ------
    name / title:
        Identifier (``"FIG5"``) and one-line description.
    driver:
        Key into ``repro.registry.DRIVERS`` (``"sweep"``,
        ``"tolerance_search"``, ``"dual_mode"`` built-in).
    params / scales / derived:
        Base parameters, per-scale override maps (``{"small": {...},
        "paper": {...}}``) and derived parameters (expressions evaluated in
        declaration order after the overrides).
    axes / point_derived:
        Ordered sweep axes (``{"name": ..., "values": ...}``; values may be
        an expression) whose cartesian product forms the grid, plus per-point
        derived bindings.
    label:
        ``str.format`` template naming each point (becomes the row label).
    scenario / deployment / faults:
        Templates for the :class:`~repro.sim.config.ScenarioConfig` kwargs
        and the deployment / fault-plan component specs (``{"kind":
        <registry key>, **factory fields}``; the whole value may be an
        expression choosing between kinds).  ``faults`` may be ``None``.
    extra:
        Extra row-column template attached to each task.
    rows:
        Key into ``repro.registry.METRICS`` selecting the row builder that
        turns aggregated points into table rows.
    repetitions / base_seed / max_rounds:
        Sweep-task knobs (templates; the defaults reference same-named
        params).
    options:
        Driver-specific extras (e.g. the tolerance search's candidates and
        threshold).
    """

    name: str
    title: str
    driver: str = "sweep"
    params: Mapping[str, Any] = field(default_factory=dict)
    scales: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    derived: Mapping[str, Any] = field(default_factory=dict)
    axes: Sequence[Mapping[str, Any]] = ()
    point_derived: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    scenario: Mapping[str, Any] = field(default_factory=dict)
    deployment: Any = None
    faults: Any = None
    extra: Mapping[str, Any] = field(default_factory=dict)
    rows: str = "default"
    repetitions: Any = "$repetitions"
    base_seed: Any = "$base_seed"
    max_rounds: Any = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        errors = []
        if not isinstance(self.name, str) or not self.name:
            errors.append("'name' must be a non-empty string")
        if not isinstance(self.title, str) or not self.title:
            errors.append("'title' must be a non-empty string")
        if not isinstance(self.driver, str) or not self.driver:
            errors.append("'driver' must be a non-empty string")
        if not isinstance(self.rows, str) or not self.rows:
            errors.append("'rows' must be a non-empty string (a metrics-registry key)")
        for slot in ("params", "scales", "derived", "point_derived", "scenario", "extra", "options"):
            if not isinstance(getattr(self, slot), Mapping):
                errors.append(f"{slot!r} must be a mapping")
        if isinstance(self.scales, Mapping):
            for scale, overrides in self.scales.items():
                if not isinstance(overrides, Mapping):
                    errors.append(f"scale {scale!r} must map to a mapping of overrides")
        if isinstance(self.axes, (str, Mapping)) or not isinstance(self.axes, Sequence):
            errors.append("'axes' must be a sequence of {name, values} mappings")
        else:
            for index, axis in enumerate(self.axes):
                if not isinstance(axis, Mapping) or "name" not in axis or "values" not in axis:
                    errors.append(f"axis #{index} must be a mapping with 'name' and 'values'")
        if errors:
            raise SpecValidationError(errors, source=getattr(self, "name", None) or "spec")
        for slot in (
            "params",
            "scales",
            "derived",
            "axes",
            "point_derived",
            "scenario",
            "deployment",
            "faults",
            "extra",
            "options",
        ):
            object.__setattr__(self, slot, _normalize(getattr(self, slot)))

    # -- scale handling -------------------------------------------------------------------
    def scale_names(self) -> tuple[str, ...]:
        return tuple(self.scales)

    # -- serialization --------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-compatible dictionary (tuples become lists on encode)."""
        payload: dict = {"schema": SPEC_SCHEMA_VERSION}
        for spec_field in fields(self):
            payload[spec_field.name] = getattr(self, spec_field.name)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, source: Optional[str] = None) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise SpecValidationError(["spec document must be a mapping"], source=source)
        data = dict(data)
        schema = data.pop("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise SpecValidationError(
                [f"unsupported spec schema {schema!r} (this build reads {SPEC_SCHEMA_VERSION})"],
                source=source,
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        errors = []
        if unknown:
            errors.append(
                f"unknown field(s): {', '.join(unknown)}; known fields: {', '.join(sorted(known))}"
            )
        missing = [name for name in ("name", "title") if name not in data]
        if missing:
            errors.append(f"missing required field(s): {', '.join(missing)}")
        if errors:
            raise SpecValidationError(errors, source=source)
        try:
            return cls(**data)
        except SpecValidationError as exc:
            raise SpecValidationError(exc.errors, source=source) from exc

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str, *, source: Optional[str] = None) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError([f"invalid JSON: {exc}"], source=source) from exc
        return cls.from_dict(data, source=source)

    def to_toml(self) -> str:
        """A TOML document equal (after :meth:`from_toml`) to this spec.

        ``None``-valued top-level fields are omitted (TOML has no null);
        nested ``None`` values are rejected.
        """
        lines = []
        for key, value in self.to_dict().items():
            if value is None:
                continue
            lines.append(f"{_toml_key(key)} = {_toml_value(value, where=key)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str, *, source: Optional[str] = None) -> "ExperimentSpec":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecValidationError([f"invalid TOML: {exc}"], source=source) from exc
        return cls.from_dict(data, source=source)


_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _toml_key(key: str) -> str:
    return key if _BARE_KEY.match(key) else json.dumps(key)


def _toml_value(value: Any, *, where: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        rendered = repr(value)
        return rendered if any(ch in rendered for ch in ".einf") else rendered + ".0"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, Mapping):
        items = ", ".join(
            f"{_toml_key(str(k))} = {_toml_value(v, where=f'{where}.{k}')}"
            for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item, where=where) for item in value) + "]"
    if value is None:
        raise SpecValidationError(
            [f"TOML cannot represent null (field {where!r}); drop the key instead"]
        )
    raise SpecValidationError(
        [f"cannot serialize {type(value).__name__} (field {where!r}) to TOML"]
    )


def load_spec(path: "str | Path") -> ExperimentSpec:
    """Load a user-authored spec file (``.json`` or ``.toml``)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf8")
    except OSError as exc:
        raise SpecValidationError([f"cannot read spec file: {exc}"], source=str(path)) from exc
    suffix = path.suffix.lower()
    if suffix == ".json":
        return ExperimentSpec.from_json(text, source=str(path))
    if suffix == ".toml":
        return ExperimentSpec.from_toml(text, source=str(path))
    raise SpecValidationError(
        [f"unsupported spec extension {suffix!r}; expected .json or .toml"], source=str(path)
    )
