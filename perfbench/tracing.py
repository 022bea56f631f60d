"""Spans and counters recorded from outside the library, for the traced run.

The traced sample wraps each layer's public entry point where its callers
look it up (a module attribute or a class attribute) — the library itself is
not modified.  Each wrapper records a span ``[name, start, end, parent]`` in
memory; the list is written out when the sample ends, and the parent turns
it into per-layer *self* times: a span's duration minus the part of it that
its child spans cover.  Counters are recorded at the same boundaries.

Which entry point stands for which layer:

=================================  ==========================================
span                               entry point
=================================  ==========================================
``topology.deploy``                deployment factory ``__call__`` and
                                   ``repro.topology.deployment.*_deployment``
``core.schedule.build``            ``repro.sim.builder.build_schedule``
``sim.builder.build_simulation``   ``repro.sim.builder.build_simulation``
``sim.linkstate.build``            ``Channel.link_state`` / ``link_state_sparse``
``sim.plan.compile``               ``SlotPlan.__init__``
``sim.soa.compile`` / ``.run``     ``SoaRuntime.__init__`` / ``run_slot``
``sim.batch.compile`` / ``.run``   ``CohortRuntime.__init__`` / ``run_slot``
``sim.radio.resolve``              ``Channel.resolve_links`` / ``resolve_links_sparse``
``sim.engine.run``                 ``Simulation.run``
``sim.runner.repetition``          ``repro.sim.runner.run_repetition``
``sim.runner.dispatch``            ``CachingSweepExecutor.run`` / ``SweepExecutor.run``
``experiments.run_spec``           ``repro.experiments.{driver,registry}.run_spec``
``store.put``                      ``ResultStore.put``
=================================  ==========================================

An entry point that no longer exists is skipped here; the spans that did
get installed are listed, and ``run.py``'s coverage check fails the traced
run when a span its workload must fire is missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Optional

#: Callbacks a protocol's SoA spec hands the kernels that commit per device:
#: NeighborWatchRB's commit-pipeline rerun, MultiPathRB's control-stream
#: drain and the epidemic adoption.
COMMIT_CALLBACKS = ("update_commits", "drain_slot", "adopt")


class Tracer:
    """In-memory spans ``[name, start, end, parent_index]`` plus counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------------
    def open(self, name: str, start: Optional[float] = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock() if start is None else start, None, parent])
        self.stack.append(index)
        return index

    def close(self, index: int, end: Optional[float] = None) -> None:
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self.spans[index][2] = self.clock() if end is None else end

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span ``name``; ``after(args, result)`` runs outside it.

        ``after`` does bookkeeping (reading counters off the result), which
        is charged to a ``trace.bookkeeping`` span so it never inflates the
        caller's self time.
        """
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                with self.span("trace.bookkeeping"):
                    after(args, result)
            return result

        return traced

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Replace ``owner.attr`` by ``make(original)``; False if it is absent.

        On a class only an attribute the class itself defines is replaced,
        so an inherited method is wrapped once, on the class that owns it.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            return False
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} span(s) still open")
        with open(path, "w", encoding="utf8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def self_times(spans: list) -> dict[str, float]:
    """Per-name sum of span durations minus the time their children cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
    return totals


def durations(spans: list, name: str) -> list[float]:
    return [end - start for span_name, start, end, _parent in spans if span_name == name]


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _subclasses(cls) -> list:
    """``cls`` and every subclass, each once (a class must be wrapped once)."""
    found, pending = {}, [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found[current] = None
            pending.extend(current.__subclasses__())
    return list(found)


def _owner_of(cls, attr: str):
    """The class in ``cls``'s MRO that defines ``attr`` (what a call reaches)."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    return None


def instrument(tracer: Tracer) -> set[str]:
    """Install every layer wrapper; returns the span names that got installed."""
    installed: set[str] = set()

    def timed(owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        if owner is not None and tracer.patch(owner, attr, lambda fn: tracer.timed(name, fn, after)):
            installed.add(name)

    registry = _module("repro.registry")
    builder = _module("repro.sim.builder")
    radio = _module("repro.sim.radio")

    # Construction layers.
    if registry is not None:
        for key in registry.DEPLOYMENTS.keys():
            timed(registry.DEPLOYMENTS.get(key), "__call__", "topology.deploy")
    for attr in ("uniform_deployment", "clustered_deployment"):
        timed(_module("repro.topology.deployment"), attr, "topology.deploy")
    timed(builder, "build_schedule", "core.schedule.build")
    timed(builder, "build_simulation", "sim.builder.build_simulation")

    def link_state_built(_args, state) -> None:
        tracer.add("sim.linkstate.builds")
        indices = getattr(state, "indices", None)
        if indices is not None:  # CSR tier
            tracer.add("sim.linkstate.nnz", int(indices.size))
            tracer.add("sim.linkstate.bytes", int(indices.nbytes + state.indptr.nbytes))
        elif hasattr(state, "nbytes"):  # dense matrix
            tracer.add("sim.linkstate.nnz", int((state != 0).sum()))
            tracer.add("sim.linkstate.bytes", int(state.nbytes))

    for cls in _subclasses(radio.Channel) if radio is not None else ():
        for attr in ("link_state", "link_state_sparse"):
            timed(cls, attr, "sim.linkstate.build", link_state_built)
        for attr in ("resolve_links", "resolve_links_sparse"):
            timed(cls, attr, "sim.radio.resolve")

    soa_runtime = getattr(_module("repro.sim.soa"), "SoaRuntime", None)
    cohort_runtime = getattr(_module("repro.sim.batch"), "CohortRuntime", None)
    timed(getattr(_module("repro.sim.plan"), "SlotPlan", None), "__init__", "sim.plan.compile")
    timed(soa_runtime, "__init__", "sim.soa.compile")
    timed(soa_runtime, "run_slot", "sim.soa.run")
    timed(cohort_runtime, "__init__", "sim.batch.compile")
    timed(cohort_runtime, "run_slot", "sim.batch.run")

    # Engine loop, with the per-simulation tier counters read off the public
    # plan_cache_info() snapshot once the run returns.
    def simulation_ran(args, _result) -> None:
        tracer.add("sim.engine.runs")
        info = args[0].plan_cache_info()
        soa_info = info.get("soa_kernels", {})
        if soa_info.get("enabled"):
            for key in ("slots_compiled", "member_slots", "slots_run", "scalar_fallbacks",
                        "busy_cache_hits", "busy_cache_misses"):
                tracer.add(f"sim.soa.{key}", soa_info.get(key, 0))
        cohort = info.get("cohort_runtime", {})
        if cohort.get("enabled"):
            for key in ("share_hits", "divergence_splits"):
                tracer.add(f"sim.batch.{key}", cohort.get(key, 0))
        memo = info.get("round_memo", {})
        tracer.add("sim.plan.round_memo_hits", memo.get("hits", 0))
        tracer.add("sim.plan.round_memo_misses", memo.get("misses", 0))

    simulation = getattr(_module("repro.sim.engine"), "Simulation", None)
    timed(simulation, "run", "sim.engine.run", simulation_ran)

    # Sweep layers.
    runner = _module("repro.sim.runner")
    timed(runner, "run_repetition", "sim.runner.repetition")
    timed(getattr(runner, "SweepExecutor", None), "run", "sim.runner.dispatch")
    caching = getattr(_module("repro.store.executor"), "CachingSweepExecutor", None)
    timed(caching, "run", "sim.runner.dispatch")
    for module in ("repro.experiments.driver", "repro.experiments.registry"):
        timed(_module(module), "run_spec", "experiments.run_spec")
    timed(getattr(_module("repro.store.store"), "ResultStore", None), "put", "store.put")

    if registry is not None:
        _count_commits(tracer, registry)
    return installed


def _count_commits(tracer: Tracer, registry) -> None:
    """Count per-device protocol commits into ``core.commit_calls``.

    Two paths commit per device: the SoA kernels call the post-accept
    callbacks a protocol's ``soa_state_spec``/``soa_node_spec`` hands them,
    and the scalar loop calls every participant's ``observe`` and
    ``end_slot``.  Both are wrapped with a counter (no span: there are
    millions of calls), on the class that defines each method.
    """
    key = "core.commit_calls"
    tracer.counts.setdefault(key, 0)

    def counting_spec(spec_fn):
        @functools.wraps(spec_fn)
        def spec_with_counters(*args, **kwargs):
            spec = spec_fn(*args, **kwargs)
            if spec:
                spec = dict(spec)
                for name in COMMIT_CALLBACKS:
                    if callable(spec.get(name)):
                        spec[name] = tracer.counted(key, spec[name])
            return spec

        return spec_with_counters

    owners: set[tuple] = set()
    for name in registry.PROTOCOLS.keys():
        for cls in getattr(registry.PROTOCOLS.get(name), "protocol_classes", ()):
            for attr in ("observe", "end_slot", "soa_state_spec", "soa_node_spec"):
                owner = _owner_of(cls, attr)
                if owner is not None:
                    owners.add((owner, attr))
    for owner, attr in sorted(owners, key=lambda pair: (pair[0].__qualname__, pair[1])):
        if attr in ("observe", "end_slot"):
            tracer.patch(owner, attr, lambda fn: tracer.counted(key, fn))
        else:
            tracer.patch(owner, attr, counting_spec)
