"""Tests of the open component registries (repro.registry).

Covers the registration contract the PR 5 redesign introduced: duplicate keys
raise immediately, unknown keys list the candidates, lookups are
alias-tolerant, and every registered protocol declares the shareable-contract
fields the cohort runtime requires.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import pytest

from repro.registry import (
    CHANNELS,
    DEPLOYMENTS,
    DRIVERS,
    EXPERIMENT_SPECS,
    FAULT_PLANS,
    METRICS,
    PROTOCOLS,
    ChannelPlugin,
    ProtocolPlugin,
    Registry,
    RegistryError,
)


class TestRegistryMechanics:
    def test_duplicate_key_raises(self):
        registry = Registry("widget")
        registry.register("alpha", object())
        with pytest.raises(RegistryError, match="duplicate"):
            registry.register("alpha", object())

    def test_duplicate_alias_raises(self):
        registry = Registry("widget")
        registry.register("alpha", object(), aliases=("a",))
        with pytest.raises(RegistryError, match="duplicate"):
            registry.register("beta", object(), aliases=("a",))

    def test_alias_collision_with_existing_key_raises(self):
        registry = Registry("widget")
        registry.register("alpha", object())
        with pytest.raises(RegistryError, match="duplicate"):
            registry.register("beta", object(), aliases=("alpha",))

    def test_unknown_key_lists_candidates(self):
        registry = Registry("widget")
        registry.register("alpha", object(), aliases=("a",))
        registry.register("beta", object())
        with pytest.raises(RegistryError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha" in message and "beta" in message
        assert "aliases: a" in message

    def test_registry_error_is_key_and_value_error(self):
        # Both historical lookup contracts must keep working.
        assert issubclass(RegistryError, KeyError)
        assert issubclass(RegistryError, ValueError)

    def test_lookup_ignores_case_dash_underscore(self):
        registry = Registry("widget")
        sentinel = object()
        registry.register("two_words", sentinel)
        for variant in ("two_words", "TWO_WORDS", "two-words", "twowords", "Two-Words"):
            assert registry.get(variant) is sentinel
            assert registry.canonical(variant) == "two_words"

    def test_duplicate_registration_on_real_registry_raises(self):
        with pytest.raises(RegistryError, match="duplicate"):
            PROTOCOLS.register("neighborwatch", object())

    def test_contains_and_keys(self):
        assert "neighborwatch" in PROTOCOLS
        assert "nw" in PROTOCOLS
        assert "quantum" not in PROTOCOLS
        assert PROTOCOLS.keys() == ["neighborwatch", "neighborwatch2", "multipath", "epidemic"]


class TestBuiltinRegistrations:
    def test_expected_keys(self):
        assert CHANNELS.keys() == ["unitdisk", "friis"]
        assert DEPLOYMENTS.keys() == ["uniform", "clustered", "fixed"]
        assert FAULT_PLANS.keys() == ["target_density_crash", "budgeted_jammer", "random_liar"]
        assert set(DRIVERS.keys()) == {"sweep", "tolerance_search", "dual_mode"}
        assert "default" in METRICS.keys()
        assert EXPERIMENT_SPECS.keys() == [
            "FIG5", "JAM", "FIG6", "FIG7", "CLUST", "MAPSZ", "EPID", "DUAL"
        ]

    @pytest.mark.parametrize(
        "registry",
        [PROTOCOLS, CHANNELS, DEPLOYMENTS, FAULT_PLANS, METRICS, DRIVERS, EXPERIMENT_SPECS],
        ids=lambda registry: registry.kind,
    )
    def test_every_entry_passes_its_contract(self, registry):
        registry.validate_all()

    def test_historical_protocol_aliases_resolve(self):
        for alias, canonical in [
            ("nw", "neighborwatch"),
            ("neighborwatchrb", "neighborwatch"),
            ("nw2", "neighborwatch2"),
            ("2vote", "neighborwatch2"),
            ("2-vote", "neighborwatch2"),
            ("mp", "multipath"),
            ("multipathrb", "multipath"),
            ("flood", "epidemic"),
            ("flooding", "epidemic"),
        ]:
            assert PROTOCOLS.canonical(alias) == canonical

    def test_experiment_lookup_is_case_insensitive(self):
        assert EXPERIMENT_SPECS.canonical("fig5") == "FIG5"
        assert EXPERIMENT_SPECS.get("dual").name == "DUAL"


class TestProtocolContract:
    """Every registered protocol must declare the cohort-runtime contract."""

    @pytest.mark.parametrize("key", ["neighborwatch", "neighborwatch2", "multipath", "epidemic"])
    def test_declares_shareable_contract_fields(self, key):
        plugin = PROTOCOLS.get(key)
        assert plugin.protocol_classes, f"{key} declares no protocol classes"
        for cls in plugin.protocol_classes:
            assert isinstance(cls.shareable, bool)
            assert cls.shared_observation_attr is None or isinstance(
                cls.shared_observation_attr, str
            )
            assert callable(cls.cohort_key)

    def test_plugins_are_picklable(self):
        for key in PROTOCOLS.keys():
            pickle.loads(pickle.dumps(PROTOCOLS.get(key)))

    def test_missing_shareable_declaration_is_rejected(self):
        registry = Registry(
            "protocol", validator=PROTOCOLS._validator, instantiate=True
        )

        class Bare:
            pass

        @registry.register("bogus")
        class BogusPlugin(ProtocolPlugin):
            protocol_classes = (Bare,)

            def build(self, config):  # pragma: no cover - never called
                return None

            def build_liar(self, config, fake_message):  # pragma: no cover
                return None

            def build_schedule(self, deployment, config):  # pragma: no cover
                return None

        with pytest.raises(RegistryError, match="shareable"):
            registry.get("bogus")

    @pytest.mark.parametrize(
        "missing",
        [
            "cohort_key",
            "clone_for_split",
            "state_signature",
            "phase_act",
            "phase_observe",
            "phase_end",
            "shared_observation_attr",
        ],
    )
    def test_incomplete_shareable_contract_is_rejected(self, missing):
        from repro.core.protocol import Protocol

        def hook(self, *args):  # pragma: no cover - never called
            return None

        members = {
            "shareable": True,
            "shared_observation_attr": "busy",
            "cohort_key": hook,
            "clone_for_split": hook,
            "state_signature": hook,
            "phase_act": hook,
            "phase_observe": hook,
            "phase_end": hook,
        }
        del members[missing]
        Incomplete = type("Incomplete", (Protocol,), members)

        registry = Registry(
            "protocol", validator=PROTOCOLS._validator, instantiate=True
        )

        @registry.register("incomplete")
        class IncompletePlugin(ProtocolPlugin):
            protocol_classes = (Incomplete,)

            def build(self, config):  # pragma: no cover - never called
                return None

            def build_liar(self, config, fake_message):  # pragma: no cover
                return None

            def build_schedule(self, deployment, config):  # pragma: no cover
                return None

        with pytest.raises(RegistryError, match=missing):
            registry.get("incomplete")

    def test_factory_registries_reject_non_dataclasses(self):
        registry = Registry("deployment", validator=DEPLOYMENTS._validator)

        def not_a_dataclass(seed):  # pragma: no cover - never called
            return None

        registry.register("closurelike", not_a_dataclass)
        with pytest.raises(RegistryError, match="dataclass"):
            registry.get("closurelike")

    def test_factory_entries_are_fingerprintable(self):
        from repro.sim.runner import fingerprint_payload

        for registry in (DEPLOYMENTS, FAULT_PLANS):
            for key in registry.keys():
                cls = registry.get(key)
                # Classes themselves reduce via their qualified name; what
                # matters is that *instances* are dataclasses, which
                # fingerprint_payload reduces field-by-field.
                assert hasattr(cls, "__dataclass_fields__")
                assert callable(fingerprint_payload)


class TestBuilderViaRegistries:
    def test_channel_plugins_build_from_config(self):
        from repro.sim.config import ScenarioConfig
        from repro.sim.radio import FriisChannel, UnitDiskChannel

        config = ScenarioConfig(radius=3.0, loss_probability=0.1)
        assert isinstance(CHANNELS.get("unitdisk").build(config), UnitDiskChannel)
        assert isinstance(CHANNELS.get("friis").build(config), FriisChannel)

    def test_protocol_plugin_builders_match_builder_output(self):
        from repro.core.neighborwatch import NeighborWatchNode
        from repro.sim.config import ScenarioConfig

        config = ScenarioConfig(protocol="neighborwatch2", radius=3.0)
        honest = PROTOCOLS.get(config.protocol).build(config)
        assert isinstance(honest, NeighborWatchNode)
        assert honest.config.votes_required == 2
        liar = PROTOCOLS.get(config.protocol).build_liar(config, (1, 0, 1, 0))
        assert isinstance(liar, NeighborWatchNode)
        assert liar.config.votes_required == 2

    def test_scenario_config_rejects_unknown_components(self):
        from repro.sim.config import ScenarioConfig

        with pytest.raises(ValueError, match="unknown protocol"):
            ScenarioConfig(protocol="quantum")
        with pytest.raises(ValueError, match="unknown channel"):
            ScenarioConfig(channel="string-and-cans")
