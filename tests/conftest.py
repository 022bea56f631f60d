"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.config import ScenarioConfig
from repro.sim.engine import clear_link_cache
from repro.topology.deployment import Deployment, grid_jittered_deployment, uniform_deployment


@pytest.fixture(autouse=True)
def _isolated_link_cache():
    """Start every test with an empty engine link-state cache.

    The cache is module-level and keyed by (channel, positions); entries are
    never semantically stale, but tests that assert on hit/miss counts or on
    cached-channel behaviour would otherwise observe entries left behind by
    whichever test happened to run before them.
    """
    clear_link_cache()
    yield


class LinkForms:
    """Picks the link-state form of the simulations a test builds.

    The node count alone picks the form
    (``repro.sim.engine.default_spatial_tiling``).  ``use(True)`` lowers
    ``SPATIAL_TILING_AUTO_NODES`` to 0, so every deployment keeps the sparse
    state (positions, plus the CSR for the unit disk); ``use(False)``
    restores the threshold, under which every test deployment (at most
    4,096 nodes) keeps the dense matrix.  Each call empties the link cache.
    """

    def __init__(self, monkeypatch) -> None:
        from repro.sim import engine

        self._engine = engine
        self._monkeypatch = monkeypatch
        self._default = engine.SPATIAL_TILING_AUTO_NODES

    def use(self, sparse: bool) -> None:
        threshold = 0 if sparse else self._default
        self._monkeypatch.setattr(self._engine, "SPATIAL_TILING_AUTO_NODES", threshold)
        clear_link_cache()

    def both(self, run):
        """``(run(False), run(True))``: ``run(sparse)`` on the dense form, then the sparse."""
        results = []
        for sparse in (False, True):
            self.use(sparse)
            results.append(run(sparse))
        return tuple(results)


@pytest.fixture
def link_forms(monkeypatch) -> LinkForms:
    return LinkForms(monkeypatch)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_grid_deployment() -> Deployment:
    """A 7x7 unit grid (49 devices) with the source at the center."""
    return grid_jittered_deployment(6, 6, spacing=1.0)


@pytest.fixture
def tiny_grid_deployment() -> Deployment:
    """A 5x5 unit grid (25 devices) with the source at the center."""
    return grid_jittered_deployment(4, 4, spacing=1.0)


@pytest.fixture
def uniform_small_deployment() -> Deployment:
    """A random uniform deployment dense enough for every protocol to finish."""
    return uniform_deployment(90, 8, 8, rng=7)


@pytest.fixture
def nw_config() -> ScenarioConfig:
    return ScenarioConfig(protocol="neighborwatch", radius=3.0, message_length=3, seed=11)


@pytest.fixture
def mp_config() -> ScenarioConfig:
    return ScenarioConfig(
        protocol="multipath", radius=3.0, message_length=2, multipath_tolerance=1, seed=11
    )


@pytest.fixture
def epidemic_config() -> ScenarioConfig:
    return ScenarioConfig(protocol="epidemic", radius=3.0, message_length=3, seed=11)
