"""Lying devices: Byzantine nodes that propagate a fake message.

The paper simulates its "malicious attack" scenario by initialising corrupt
devices with a fake message while otherwise running the correct protocol
(Section 6.1): they look perfectly well-behaved to their neighbors, which is
what makes the attack dangerous.  Concretely:

* for **NeighborWatchRB** the lying devices act as sources initialised with
  the fake message — they try to relay the fake bits through their square's
  broadcast interval, and succeed only if no honest device shares (and
  therefore vetoes) the square;
* for **MultiPathRB** the lying devices broadcast COMMIT messages for the fake
  value and never relay HEARD messages from correct nodes;
* for the **epidemic** baseline a lying device simply floods the fake payload
  (the baseline has no defence whatsoever, which is the paper's point).

How each protocol's liar is *constructed* is owned by that protocol's
registered plugin (``ProtocolPlugin.build_liar``, the path the simulation
builder takes); the helpers here are thin conveniences that delegate through
``repro.registry.PROTOCOLS``, so there is exactly one construction rule per
protocol.

Cohort runtime note: although a NeighborWatchRB liar is a
``NeighborWatchNode``, the class the cohort runtime shares, the devices built
by these factories are registered with ``honest=False`` in the simulation,
and the cohort runtime never shares dishonest devices — every lying device
runs as a singleton, exactly as the scalar oracle executes it (their
``preloaded_message`` also keys them apart from honest cohorts via
``cohort_key``, as defence in depth).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.epidemic import EpidemicNode
from ..core.messages import Bits, validate_bits
from ..core.multipath import MultiPathNode
from ..core.neighborwatch import NeighborWatchConfig, NeighborWatchNode
from ..core.protocol import Protocol
from ..registry import PROTOCOLS

__all__ = [
    "fake_message_for",
    "lying_neighborwatch_node",
    "lying_multipath_node",
    "lying_epidemic_node",
    "lying_node_factory",
]


def fake_message_for(message: Iterable[int]) -> Bits:
    """The canonical fake message used in the lying experiments.

    The complement of the true message maximises the damage of a successful
    lie (every bit differs), matching the spirit of the paper's evaluation
    where corrupt devices try to persuade honest devices to adopt an
    *incorrect value*.
    """
    bits = validate_bits(message)
    return tuple(1 - b for b in bits)


def _plugin_liar(protocol: str, fake_message: Sequence[int], *, tolerance: int = 3) -> Protocol:
    """Build a liar through the protocol plugin (the single construction rule)."""
    from ..sim.config import ScenarioConfig

    scenario = ScenarioConfig(protocol=protocol, multipath_tolerance=int(tolerance))
    return PROTOCOLS.get(scenario.protocol).build_liar(scenario, fake_message)


def lying_neighborwatch_node(
    fake_message: Sequence[int], config: Optional[NeighborWatchConfig] = None
) -> NeighborWatchNode:
    """A NeighborWatchRB device preloaded with a fake message.

    An explicit ``config`` (e.g. a custom voting rule) bypasses the plugin's
    default; ``None`` delegates to the registered construction rule.
    """
    if config is not None:
        return NeighborWatchNode(config=config, preloaded_message=fake_message)
    return _plugin_liar("neighborwatch", fake_message)


def lying_multipath_node(
    fake_message: Sequence[int], tolerance: int = 3
) -> MultiPathNode:
    """A MultiPathRB device that floods fake COMMITs and suppresses HEARD relays."""
    return _plugin_liar("multipath", fake_message, tolerance=tolerance)


def lying_epidemic_node(fake_message: Sequence[int]) -> EpidemicNode:
    """An epidemic device that floods a fake payload."""
    return _plugin_liar("epidemic", fake_message)


def lying_node_factory(protocol: str, fake_message: Sequence[int], **kwargs) -> Protocol:
    """Dispatch helper: a lying device for any registered protocol key.

    ``protocol`` is a registry key or alias (``"neighborwatch"``, ``"nw2"``,
    ``"multipath"``, ...); keyword arguments are forwarded where meaningful
    (``tolerance`` for MultiPathRB, an explicit NeighborWatch ``config``).
    Unknown keys raise a listing :class:`~repro.registry.RegistryError`.
    """
    from ..core.neighborwatch import NeighborWatchPlugin

    canonical = PROTOCOLS.canonical(protocol)
    config = kwargs.get("config")
    if config is not None and isinstance(PROTOCOLS.get(canonical), NeighborWatchPlugin):
        # The explicit-config override only exists for the NeighborWatch
        # family (a custom voting rule); other protocols always take their
        # plugin's construction rule.
        return NeighborWatchNode(config=config, preloaded_message=fake_message)
    return _plugin_liar(canonical, fake_message, tolerance=int(kwargs.get("tolerance", 3)))
