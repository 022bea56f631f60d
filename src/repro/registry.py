"""Open, string-keyed component registries.

Before PR 5 the set of simulatable components was closed: protocols and
channels were enum members (``ProtocolName`` / ``ChannelName``) consumed by
``if``-chains in :mod:`repro.sim.builder`, and adding a scenario ingredient
meant editing the enum, every chain, and usually an experiment module.  This
module replaces that with *open registries*: a component self-registers under
a string key via a decorator at its definition site, and everything downstream
(the scenario builder, the declarative experiment drivers, the CLI) looks it
up by key.

Registries
----------
========================  ===========================================================
:data:`PROTOCOLS`         :class:`ProtocolPlugin` instances ("neighborwatch", ...)
:data:`CHANNELS`          :class:`ChannelPlugin` instances ("unitdisk", "friis")
:data:`DEPLOYMENTS`       picklable deployment-factory dataclasses ("uniform", ...)
:data:`FAULT_PLANS`       picklable fault-plan factory dataclasses ("random_liar", ...)
:data:`METRICS`           row builders deriving table rows from sweep points
:data:`DRIVERS`           experiment drivers executing a resolved ExperimentSpec
:data:`EXPERIMENT_SPECS`  the built-in :class:`~repro.experiments.spec.ExperimentSpec`
:data:`EXECUTOR_BACKENDS` :class:`~repro.sim.backends.ExecutorBackend` classes
                          ("serial", "process-pool", "chaos", "queue")
:data:`STORE_BACKENDS`    :class:`~repro.store.ResultStore` classes
                          ("local", "shared")
========================  ===========================================================

Usage::

    from repro.registry import register_protocol, ProtocolPlugin

    @register_protocol("myproto", aliases=("mp2",))
    class MyProtocolPlugin(ProtocolPlugin):
        protocol_classes = (MyProtocolNode,)
        def build(self, config): ...
        def build_liar(self, config, fake_message): ...
        def build_schedule(self, deployment, config): ...

Lookups are alias-tolerant (case, ``-`` and ``_`` are ignored, so ``"2-vote"``
finds ``"neighborwatch2"`` through its ``"2vote"`` alias) and an unknown key
raises a :class:`RegistryError` listing every available key.  Duplicate
registration of a key or alias raises immediately.  Component contracts are
validated lazily on first lookup (entries register while their module is still
executing, so e.g. pickling a factory class by qualified name only works once
the module finished importing): protocol plugins must declare the shareable
contract the cohort runtime requires, factories must be picklable dataclasses
so :func:`repro.sim.runner.fingerprint_payload` can reduce them stably.

The built-in components register when their home module imports; each registry
knows those modules and imports them on first use, so ``PROTOCOLS.get("nw")``
works without any explicit bootstrap import.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pickle
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

__all__ = [
    "RegistryError",
    "Registry",
    "ProtocolPlugin",
    "ChannelPlugin",
    "PROTOCOLS",
    "CHANNELS",
    "DEPLOYMENTS",
    "FAULT_PLANS",
    "METRICS",
    "DRIVERS",
    "EXPERIMENT_SPECS",
    "EXECUTOR_BACKENDS",
    "STORE_BACKENDS",
    "register_protocol",
    "register_channel",
    "register_deployment",
    "register_fault_plan",
    "register_metric",
    "register_driver",
    "register_experiment_spec",
    "register_executor_backend",
    "register_store_backend",
]


class RegistryError(KeyError, ValueError):
    """Unknown key or invalid registration; the message lists the candidates.

    Subclasses both ``KeyError`` (the experiment registry's historical lookup
    contract) and ``ValueError`` (the ``ProtocolName.parse`` /
    ``ChannelName`` contract the registries replaced), so existing callers'
    ``except`` clauses keep working.
    """

    def __str__(self) -> str:  # KeyError would wrap the message in quotes
        return self.args[0] if self.args else ""


def _squash(key: str) -> str:
    """Lookup normalization: case, ``-`` and ``_`` are insignificant."""
    return str(key).strip().lower().replace("-", "").replace("_", "")


class Registry:
    """An ordered, alias-tolerant mapping from string keys to components.

    Parameters
    ----------
    kind:
        Human name of the component class ("protocol", "channel", ...), used
        in error messages.
    validator:
        Optional ``validator(key, obj)`` contract check, run once per entry on
        its first lookup (see the module docstring for why not at
        registration); a failed check raises :class:`RegistryError`.
    builtin_modules:
        Modules whose import registers the built-in components of this
        registry; imported on first use.
    """

    def __init__(
        self,
        kind: str,
        *,
        validator: Optional[Callable[[str, Any], None]] = None,
        builtin_modules: Sequence[str] = (),
        instantiate: bool = False,
    ) -> None:
        self.kind = kind
        self._validator = validator
        self._builtin_modules = tuple(builtin_modules)
        self._builtins_loaded = not self._builtin_modules
        self._instantiate = instantiate
        self._entries: dict[str, Any] = {}
        self._aliases: dict[str, str] = {}  # squashed alias/key -> canonical key
        self._validated: set[str] = set()

    # -- registration ---------------------------------------------------------------------
    def register(self, key: str, obj: Any = None, *, aliases: Sequence[str] = ()):
        """Register ``obj`` under ``key``; usable as a decorator when ``obj`` is omitted.

        Registries constructed with ``instantiate=True`` (:data:`PROTOCOLS`,
        :data:`CHANNELS`, :data:`DRIVERS` — whose entries are stateless
        strategy objects) store an *instance* when a class is decorated; every
        other registry stores the class itself.  The decorated object is
        returned unchanged either way.
        """
        if obj is None:
            return lambda target: self.register(key, target, aliases=aliases) or target

        canonical = str(key)
        squashed = _squash(canonical)
        if not squashed:
            raise RegistryError(f"cannot register an empty {self.kind} key")
        for candidate in (squashed, *map(_squash, aliases)):
            if candidate in self._aliases:
                raise RegistryError(
                    f"duplicate {self.kind} registration: {candidate!r} already "
                    f"resolves to {self._aliases[candidate]!r}"
                )
        entry = obj() if self._instantiate and isinstance(obj, type) else obj
        if hasattr(entry, "key") and getattr(entry, "key", None) is None:
            try:
                entry.key = canonical
            except (AttributeError, dataclasses.FrozenInstanceError):
                pass
        self._entries[canonical] = entry
        self._aliases[squashed] = canonical
        for alias in aliases:
            self._aliases[_squash(alias)] = canonical
        return obj

    # -- lookup ---------------------------------------------------------------------------
    def _ensure_builtins(self) -> None:
        if self._builtins_loaded:
            return
        self._builtins_loaded = True
        for module in self._builtin_modules:
            importlib.import_module(module)

    def canonical(self, key: str) -> str:
        """The canonical key ``key`` resolves to, or a listing RegistryError."""
        self._ensure_builtins()
        if isinstance(key, str) and key in self._entries:
            return key
        resolved = self._aliases.get(_squash(key))
        if resolved is None:
            available = ", ".join(self._entries) or "(none registered)"
            extra_aliases = sorted(
                alias for alias, target in self._aliases.items() if alias != _squash(target)
            )
            alias_note = f" (aliases: {', '.join(extra_aliases)})" if extra_aliases else ""
            raise RegistryError(
                f"unknown {self.kind} {key!r}; available: {available}{alias_note}"
            )
        return resolved

    def get(self, key: str) -> Any:
        """The component registered under ``key`` (alias-tolerant)."""
        canonical = self.canonical(key)
        entry = self._entries[canonical]
        if self._validator is not None and canonical not in self._validated:
            self._validator(canonical, entry)
            self._validated.add(canonical)
        return entry

    def validate_all(self) -> None:
        """Run the contract check on every registered entry (test hook)."""
        self._ensure_builtins()
        for key in list(self._entries):
            self.get(key)

    # -- mapping protocol -----------------------------------------------------------------
    def keys(self) -> list[str]:
        self._ensure_builtins()
        return list(self._entries)

    def items(self) -> list[tuple[str, Any]]:
        self._ensure_builtins()
        return [(key, self.get(key)) for key in self._entries]

    def __contains__(self, key: object) -> bool:
        try:
            self.canonical(str(key))
        except RegistryError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, keys={self.keys()!r})"


# -- plugin contracts ---------------------------------------------------------------------
class ProtocolPlugin:
    """Everything the simulator needs to know to run one protocol key.

    Subclasses implement the three builders and may override the derived-bound
    hooks.  ``protocol_classes`` lists every :class:`~repro.core.protocol.Protocol`
    subclass the plugin instantiates; registration validates that each one
    declares ``shareable`` as a bool and that a shareable class completes the
    contract the cohort runtime relies on (see :mod:`repro.core.runtime`):
    ``cohort_key``, ``clone_for_split`` and ``state_signature`` overrides, the
    ``phase_act``/``phase_observe``/``phase_end`` transitions and an
    observation projection in ``shared_observation_attr``.
    """

    #: Canonical registry key; filled in at registration.
    key: Optional[str] = None
    #: Protocol classes this plugin instantiates (checked for the contract).
    protocol_classes: tuple = ()

    def build(self, config) -> Any:
        """An honest protocol instance for ``config`` (a ScenarioConfig)."""
        raise NotImplementedError

    def build_liar(self, config, fake_message) -> Any:
        """A lying device: runs the honest protocol preloaded with ``fake_message``."""
        raise NotImplementedError

    def build_schedule(self, deployment, config) -> Any:
        """The TDMA schedule this protocol runs on."""
        raise NotImplementedError

    # -- derived-bound hooks (overridable) ------------------------------------------------
    def pipeline_hops(self, config, map_extent: float) -> int:
        """Hop count entering the generous round cap (default: radio-range hops)."""
        return max(1, int(math.ceil(map_extent / max(config.radius, 1e-9))))

    def bits_per_hop(self, config, num_slots: int) -> int:
        """1Hop bits one hop of progress costs (MultiPathRB streams whole frames)."""
        return 1

    def airtime_multiplier(self, message_length: int) -> int:
        """Payload bits one slotted round occupies on the air (epidemic: whole frames)."""
        return 1


class ChannelPlugin:
    """Builds a :class:`~repro.sim.radio.Channel` from a ScenarioConfig."""

    key: Optional[str] = None

    def build(self, config) -> Any:
        raise NotImplementedError


# -- contract validators ------------------------------------------------------------------
def _validate_protocol_plugin(key: str, plugin: Any) -> None:
    for method in ("build", "build_liar", "build_schedule"):
        if not callable(getattr(plugin, method, None)):
            raise RegistryError(f"protocol {key!r} plugin lacks a callable {method}()")
    classes = tuple(getattr(plugin, "protocol_classes", ()))
    if not classes:
        raise RegistryError(
            f"protocol {key!r} must declare protocol_classes (the Protocol "
            "subclasses it instantiates) so the cohort-runtime contract can be checked"
        )
    from .core.protocol import Protocol

    for cls in classes:
        shareable = getattr(cls, "shareable", None)
        if not isinstance(shareable, bool):
            raise RegistryError(
                f"protocol {key!r}: {cls.__name__} must declare 'shareable' as a bool"
            )
        if not shareable:
            continue
        for method in ("cohort_key", "clone_for_split", "state_signature"):
            if getattr(cls, method, None) in (None, getattr(Protocol, method)):
                raise RegistryError(
                    f"protocol {key!r}: {cls.__name__} is shareable but does not override "
                    f"{method}(); the cohort runtime cannot share it safely"
                )
        for method in ("phase_act", "phase_observe", "phase_end"):
            if not callable(getattr(cls, method, None)):
                raise RegistryError(
                    f"protocol {key!r}: {cls.__name__} is shareable but lacks {method}()"
                )
        if not isinstance(getattr(cls, "shared_observation_attr", None), str):
            raise RegistryError(
                f"protocol {key!r}: {cls.__name__} is shareable but declares no "
                "'shared_observation_attr' (the observation projection cohorts split on)"
            )
    _require_picklable("protocol", key, plugin)


def _validate_channel_plugin(key: str, plugin: Any) -> None:
    if not callable(getattr(plugin, "build", None)):
        raise RegistryError(f"channel {key!r} plugin lacks a callable build()")
    _require_picklable("channel", key, plugin)


def _validate_factory_class(kind: str):
    def validate(key: str, cls: Any) -> None:
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            raise RegistryError(
                f"{kind} {key!r} must be a dataclass *class* so "
                "fingerprint_payload() can reduce its instances stably"
            )
        if not callable(cls):
            raise RegistryError(f"{kind} {key!r} must be callable")
        _require_picklable(kind, key, cls)

    return validate


def _require_picklable(kind: str, key: str, obj: Any) -> None:
    try:
        pickle.dumps(obj)
    except Exception as exc:
        raise RegistryError(
            f"{kind} {key!r} is not picklable ({exc}); registered components must "
            "survive the parallel sweep executor's process boundary"
        ) from exc


def _validate_experiment_spec(key: str, spec: Any) -> None:
    name = getattr(spec, "name", None)
    if not isinstance(name, str) or not name:
        raise RegistryError(f"experiment {key!r} must be an ExperimentSpec with a name")


def _validate_executor_backend(key: str, cls: Any) -> None:
    if not isinstance(cls, type):
        raise RegistryError(
            f"executor backend {key!r} must be a class (construction needs the "
            "executor's knobs, so instances cannot be shared)"
        )
    for method in ("from_knobs", "run_attempts", "close"):
        if not callable(getattr(cls, method, None)):
            raise RegistryError(f"executor backend {key!r} lacks a callable {method}()")


def _validate_store_backend(key: str, cls: Any) -> None:
    if not isinstance(cls, type):
        raise RegistryError(
            f"store backend {key!r} must be a class (constructed per cache directory)"
        )
    for method in ("get", "put", "contains"):
        if not callable(getattr(cls, method, None)):
            raise RegistryError(f"store backend {key!r} lacks a callable {method}()")


# -- the registries -----------------------------------------------------------------------
_CORE_PROTOCOL_MODULES = (
    "repro.core.neighborwatch",
    "repro.core.multipath",
    "repro.core.epidemic",
)

PROTOCOLS = Registry(
    "protocol",
    validator=_validate_protocol_plugin,
    builtin_modules=_CORE_PROTOCOL_MODULES,
    instantiate=True,
)
CHANNELS = Registry(
    "channel",
    validator=_validate_channel_plugin,
    builtin_modules=("repro.sim.radio",),
    instantiate=True,
)
DEPLOYMENTS = Registry(
    "deployment",
    validator=_validate_factory_class("deployment"),
    builtin_modules=("repro.experiments.factories",),
)
FAULT_PLANS = Registry(
    "fault plan",
    validator=_validate_factory_class("fault plan"),
    builtin_modules=("repro.experiments.factories",),
)
METRICS = Registry("metric", builtin_modules=("repro.experiments.metrics",))
DRIVERS = Registry("driver", builtin_modules=("repro.experiments.driver",), instantiate=True)
EXPERIMENT_SPECS = Registry(
    "experiment",
    validator=_validate_experiment_spec,
    builtin_modules=("repro.experiments.builtin",),
)
EXECUTOR_BACKENDS = Registry(
    "executor backend",
    validator=_validate_executor_backend,
    builtin_modules=("repro.sim.backends", "repro.service.backend"),
)
STORE_BACKENDS = Registry(
    "store backend",
    validator=_validate_store_backend,
    builtin_modules=("repro.store.shared",),
)


def register_protocol(key: str, *, aliases: Sequence[str] = ()):
    """Class decorator registering a :class:`ProtocolPlugin` under ``key``."""
    return PROTOCOLS.register(key, aliases=aliases)


def register_channel(key: str, *, aliases: Sequence[str] = ()):
    """Class decorator registering a :class:`ChannelPlugin` under ``key``."""
    return CHANNELS.register(key, aliases=aliases)


def register_deployment(key: str, *, aliases: Sequence[str] = ()):
    """Class decorator registering a picklable deployment-factory dataclass."""
    return DEPLOYMENTS.register(key, aliases=aliases)


def register_fault_plan(key: str, *, aliases: Sequence[str] = ()):
    """Class decorator registering a picklable fault-plan factory dataclass."""
    return FAULT_PLANS.register(key, aliases=aliases)


def register_metric(key: str, *, aliases: Sequence[str] = ()):
    """Decorator registering a row builder ``(ctx, tasks, points) -> rows``."""
    return METRICS.register(key, aliases=aliases)


def register_driver(key: str, *, aliases: Sequence[str] = ()):
    """Class decorator registering an experiment driver."""
    return DRIVERS.register(key, aliases=aliases)


def register_experiment_spec(spec, *, aliases: Sequence[str] = ()):
    """Register an :class:`~repro.experiments.spec.ExperimentSpec` under its name."""
    return EXPERIMENT_SPECS.register(spec.name, spec, aliases=aliases)


def register_executor_backend(key: str, *, aliases: Sequence[str] = ()):
    """Class decorator registering an :class:`~repro.sim.backends.ExecutorBackend`."""
    return EXECUTOR_BACKENDS.register(key, aliases=aliases)


def register_store_backend(key: str, *, aliases: Sequence[str] = ()):
    """Class decorator registering a :class:`~repro.store.ResultStore` variant."""
    return STORE_BACKENDS.register(key, aliases=aliases)
