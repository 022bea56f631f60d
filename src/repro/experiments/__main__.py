"""Command-line entry point for the paper-reproduction experiments.

Subcommands::

    python -m repro.experiments list
    python -m repro.experiments describe FIG5 [--scale small]
    python -m repro.experiments describe --spec examples/specs/clustered_jamming.toml
    python -m repro.experiments run FIG5 --scale small --workers 4
    python -m repro.experiments run --spec examples/specs/clustered_jamming.toml
    python -m repro.experiments run FIG7 --scale small --cache-dir ~/.cache/repro --resume
    python -m repro.experiments run JAM --scale small --export csv > jam.csv
    python -m repro.experiments run FIG7 --scale small --profile
    python -m repro.experiments submit FIG5 --scale small --queue /shared/q
    python -m repro.experiments serve --queue /shared/q --workers 4
    python -m repro.experiments status --queue /shared/q GROUP
    python -m repro.experiments watch --queue /shared/q GROUP

``list`` prints the registered experiment identifiers; ``describe`` prints
the resolved spec (parameters after scale overrides, axes, grid size) without
running anything; ``run`` executes a registered experiment — or any
user-authored JSON/TOML spec file via ``--spec FILE`` (see
:mod:`repro.experiments.spec` for the format and ``examples/specs/`` for a
template).

Usage errors — an unknown experiment id, an unknown scale, a malformed or
unreadable spec file, contradictory cache flags — exit with code 2 and print
the available identifiers / every validation error to stderr; tracebacks are
reserved for genuine failures inside a running experiment.

``--workers`` fans the seeded repetitions out over processes via
:class:`~repro.sim.runner.SweepExecutor`; results are bit-identical for every
worker count, so it is purely a throughput knob.  ``--backend`` picks the
executor backend by registry key (``serial``, ``process-pool``, ``chaos``;
default: inferred from ``--workers``), ``--timeout`` puts a wall-clock budget
on every repetition and ``--max-retries`` bounds the supervised retries for
transient faults — results stay bit-identical under every recovery path.
``--cache-dir`` routes the sweep through the content-addressed
:class:`~repro.store.ResultStore` (``--resume`` requires the directory to
exist, ``--no-cache`` ignores it for one invocation); a warm-cache rerun
prints byte-identical rows while dispatching zero simulations.  ``--export
{json,csv}`` writes machine-readable rows to stdout (status lines move to
stderr).  ``--profile`` dumps the top-25 cumulative cProfile entries to
stderr; ``--profile-out PATH`` (implies ``--profile``) additionally writes
the raw :mod:`pstats` file for cross-PR diffing.

Service mode (PR 10): ``submit`` compiles a sweep spec into fingerprinted
jobs on a durable work queue and exits immediately with a group id; worker
daemons (``python -m repro.experiments serve`` or ``python -m repro.service
worker``) claim, run and persist into the queue's shared store; ``status`` /
``watch`` report a group's progress from its JSONL event log.  Fingerprint
dedupe means overlapping submits never recompute shared work, and the results
are byte-identical to a serial ``run``.  ``run --backend queue`` (with
``REPRO_QUEUE_DIR``) drives the same queue through the supervision envelope
for drivers that cannot pre-enumerate their grid.  ``--store-backend shared``
opens a cache directory with the multi-process append discipline.

Exit codes: 0 success, 2 usage error, 3 when repetitions exhausted their
retries and were quarantined (the rest of the sweep completed and, with a
cache dir, persisted), 130 on interrupt (with a resume hint when a cache dir
was in use).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from ..analysis.tables import format_table, to_csv
from ..registry import EXPERIMENT_SPECS, RegistryError
from ..sim.builder import soa_telemetry_snapshot
from ..sim.runner import SweepExecutor
from ..sim.supervision import SweepFailure, SweepInterrupted
from .driver import describe_spec, run_spec
from .spec import ExperimentSpec, SpecValidationError, load_spec

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run, list or describe the paper-reproduction experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    describe = subparsers.add_parser(
        "describe", help="print the resolved spec and sweep axes of an experiment"
    )
    _add_target_arguments(describe)
    describe.add_argument(
        "--scale",
        default=None,
        help="resolve this scale's overrides (default: the base parameters)",
    )

    run = subparsers.add_parser("run", help="run an experiment or a spec file")
    _add_target_arguments(run)
    run.add_argument(
        "--scale",
        default="small",
        help="spec scale to run: 'small' (seconds-to-minutes) or 'paper' (hours) "
        "for the built-ins; spec files may declare their own (default: small)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the sweep (0/1 = serial; results are identical)",
    )
    run.add_argument(
        "--chunk-size",
        type=int,
        default=1,
        help="repetitions each worker picks up at a time (amortises overhead)",
    )
    run.add_argument(
        "--backend",
        default=None,
        help="executor backend registry key: serial, process-pool, or chaos "
        "(default: inferred from --workers; chaos injects deterministic "
        "faults from REPRO_CHAOS_* for recovery drills)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="wall-clock budget in seconds for each repetition attempt; "
        "overruns are retried and eventually quarantined (default: none)",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retries per repetition for transient faults — timeouts, worker "
        "crashes, injected chaos (default: 2)",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the content-addressed result store; cached repetitions "
        "are reused, new ones persisted (results are identical either way)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir for this invocation (simulate everything)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from --cache-dir (errors if the cache "
        "directory does not exist yet)",
    )
    run.add_argument(
        "--export",
        choices=("json", "csv"),
        default=None,
        help="write the result rows to stdout as JSON or CSV instead of a table "
        "(status lines go to stderr)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="run the sweep under cProfile and dump the top-25 cumulative "
        "entries to stderr (results are unchanged; use with --workers 0, "
        "subprocess work is invisible to the profiler)",
    )
    run.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="also write the raw pstats profile to PATH (implies --profile); "
        "load it with pstats.Stats(PATH) to diff hot paths across PRs",
    )
    run.add_argument(
        "--store-backend",
        default="local",
        help="store backend registry key for --cache-dir: 'local' (default) or "
        "'shared' (multi-process append discipline for service mode)",
    )
    run.add_argument(
        "--export-meta",
        metavar="PATH",
        default=None,
        help="write run metadata (fabric telemetry, store counters, timing) as "
        "JSON to PATH — separate from stdout so --export byte-diffs stay valid",
    )

    submit = subparsers.add_parser(
        "submit", help="enqueue a sweep on a durable work queue and exit with a group id"
    )
    _add_target_arguments(submit)
    submit.add_argument("--scale", default="small", help="spec scale (default: small)")
    submit.add_argument("--queue", required=True, help="work-queue directory (created on first use)")
    submit.add_argument(
        "--store",
        default=None,
        help="shared store directory recorded in the queue metadata at creation "
        "(default: <queue>/store)",
    )
    submit.add_argument(
        "--store-backend",
        default="shared",
        help="store backend key recorded at queue creation (default: shared)",
    )
    submit.add_argument(
        "--lease",
        type=float,
        default=None,
        help="seconds a worker's claim stays valid without a heartbeat "
        "(recorded at queue creation; default: 30)",
    )

    serve = subparsers.add_parser(
        "serve", help="run worker daemons against a queue until interrupted (or drained)"
    )
    serve.add_argument("--queue", required=True, help="the work-queue directory")
    serve.add_argument("--workers", type=int, default=2, help="worker processes (default: 2)")
    serve.add_argument("--store", default=None, help="override the queue's shared store directory")
    serve.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        help="workers exit after this many idle seconds (default: serve forever)",
    )

    status = subparsers.add_parser("status", help="one-shot progress report of a submit group")
    status.add_argument("group", help="group id printed by submit")
    status.add_argument("--queue", required=True, help="the work-queue directory")

    watch = subparsers.add_parser(
        "watch", help="stream a group's progress events until every job settles"
    )
    watch.add_argument("group", help="group id printed by submit")
    watch.add_argument("--queue", required=True, help="the work-queue directory")
    watch.add_argument("--poll", type=float, default=0.5, help="seconds between polls")
    watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up (exit 1) after this many seconds (default: wait forever)",
    )
    return parser


def _add_target_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment identifier (e.g. FIG5; see 'list')",
    )
    parser.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="run a user-authored JSON/TOML ExperimentSpec file instead of a "
        "registered identifier",
    )


def _resolve_spec(args) -> ExperimentSpec:
    """The spec named by the arguments; RegistryError/SpecValidationError on misuse."""
    if args.spec is not None and args.experiment is not None:
        raise SpecValidationError(
            ["give either an experiment identifier or --spec FILE, not both"]
        )
    if args.spec is not None:
        return load_spec(args.spec)
    if args.experiment is None:
        raise SpecValidationError(
            ["missing experiment identifier (or --spec FILE); see 'list' for the ids"]
        )
    return EXPERIMENT_SPECS.get(args.experiment)


def _resolve_scale(spec: ExperimentSpec, requested: Optional[str]) -> Optional[str]:
    """The scale to resolve: validated against the spec's declared scales.

    Specs without a ``scales`` section (typical for user files) run on their
    base parameters; an explicitly requested scale they do not declare is an
    error, but the *default* request ("small") silently falls back to base.
    """
    if requested is None or (requested == "small" and "small" not in spec.scales):
        return None
    if requested in spec.scales:
        return requested
    declared = ", ".join(spec.scales) or "(none)"
    raise SpecValidationError(
        [f"unknown scale {requested!r}; {spec.name} declares: {declared}"],
        source=spec.name,
    )


def _list_experiments() -> str:
    width = max(len(key) for key in EXPERIMENT_SPECS)
    lines = [f"{key.ljust(width)}  {spec.title}" for key, spec in EXPERIMENT_SPECS.items()]
    return "\n".join(lines)


def _build_store(args):
    """The ResultStore the run should use, or None; raises ValueError on misuse."""
    if args.no_cache or args.cache_dir is None:
        if args.resume and args.cache_dir is None:
            raise ValueError("--resume requires --cache-dir")
        if args.resume and args.no_cache:
            raise ValueError("--resume and --no-cache are contradictory")
        return None
    from pathlib import Path

    from ..registry import STORE_BACKENDS

    if args.resume and not Path(args.cache_dir).is_dir():
        raise ValueError(
            f"--resume: cache directory {args.cache_dir!r} does not exist; "
            "nothing to resume from (drop --resume to start fresh)"
        )
    store_cls = STORE_BACKENDS.get(getattr(args, "store_backend", "local"))
    return store_cls(args.cache_dir)


def _usage_error(exc: Exception) -> int:
    """Print a usage problem (every validation error, one per line) and return 2."""
    if isinstance(exc, SpecValidationError):
        prefix = f"{exc.source}: " if exc.source else ""
        for error in exc.errors:
            print(f"error: {prefix}{error}", file=sys.stderr)
    else:
        # RegistryError messages already list the available keys.
        print(f"error: {exc}", file=sys.stderr)
    return 2


def _command_describe(args) -> int:
    try:
        spec = _resolve_spec(args)
        scale = _resolve_scale(spec, args.scale)
        print(describe_spec(spec, scale=scale))
    except (RegistryError, SpecValidationError) as exc:
        return _usage_error(exc)
    return 0


def _command_run(args) -> int:
    # Validate the knobs and resolve the spec up front, so usage errors exit
    # cleanly with code 2 while genuine failures inside a running experiment
    # still surface with a full traceback.
    try:
        spec = _resolve_spec(args)
        scale = _resolve_scale(spec, args.scale)
        if args.backend is not None:
            # Resolve the key eagerly so a typo is a clean usage error, not a
            # traceback from the first sweep's lazy backend construction.
            from ..registry import EXECUTOR_BACKENDS

            EXECUTOR_BACKENDS.get(args.backend)
        from ..registry import STORE_BACKENDS

        STORE_BACKENDS.get(args.store_backend)  # same eager-typo discipline
        if args.max_retries is not None and args.max_retries < 0:
            raise ValueError("--max-retries must be >= 0")
        if args.timeout is not None and args.timeout <= 0:
            raise ValueError("--timeout must be positive")
        executor = SweepExecutor(
            args.workers,
            chunk_size=args.chunk_size,
            backend=args.backend,
            timeout=args.timeout,
            max_retries=args.max_retries,
        )
        if args.backend is not None:
            # Construct the backend now rather than at the first sweep: its
            # knob errors (e.g. the queue backend without REPRO_QUEUE_DIR set)
            # are configuration problems, not experiment failures.
            executor.backend
        store = _build_store(args)
    except (RegistryError, SpecValidationError, ValueError) as exc:
        return _usage_error(exc)

    profiler = None
    if args.profile_out:
        args.profile = True
    if args.profile:
        import cProfile

        if executor.parallel:
            print(
                "warning: --profile only sees the coordinating process; "
                "use --workers 0 to profile the simulations themselves",
                file=sys.stderr,
            )
        profiler = cProfile.Profile()
    with executor:
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            rows = run_spec(spec, scale=scale, executor=executor, store=store)
        except (RegistryError, SpecValidationError) as exc:
            # A spec referencing an unknown component/name or failing template
            # resolution is a usage error even though it surfaces mid-run;
            # genuine simulation failures still traceback.
            if profiler is not None:
                profiler.disable()
            return _usage_error(exc)
        except SweepFailure as exc:
            # The sweep finished everything it could; only the quarantined
            # repetitions are missing.  Report them and exit distinctly so
            # scripts can tell "partial" from "crashed".
            if profiler is not None:
                profiler.disable()
            for failure in exc.failures:
                print(f"error: {failure.describe()}", file=sys.stderr)
            print(
                f"error: {len(exc.failures)} repetition(s) exhausted their retries "
                f"and were quarantined ({executor.telemetry.summary()})",
                file=sys.stderr,
            )
            if store is not None:
                print(
                    "note: completed repetitions are cached; rerun with the same "
                    f"--cache-dir {args.cache_dir} to retry only the failures",
                    file=sys.stderr,
                )
            return 3
        except KeyboardInterrupt as exc:
            if profiler is not None:
                profiler.disable()
            print("interrupted", file=sys.stderr)
            if isinstance(exc, SweepInterrupted):
                print(
                    f"note: {exc.completed} repetition(s) were computed and cached "
                    f"before the interrupt ({exc.pending} still pending); resume with "
                    f"--cache-dir {exc.cache_dir} --resume",
                    file=sys.stderr,
                )
            return 130
        if profiler is not None:
            profiler.disable()
        elapsed = time.perf_counter() - started
    if profiler is not None:
        import pstats

        if args.profile_out:
            # Raw pstats dump: loadable with pstats.Stats(path), so two PRs'
            # profiles can be diffed instead of eyeballing stderr tables.
            profiler.dump_stats(args.profile_out)
            print(f"profile written to {args.profile_out}", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)

    # With --export the rows own stdout; human-facing status moves to stderr.
    status = sys.stderr if args.export else sys.stdout
    print(f"{spec.name} — {spec.title}", file=status)
    summary = (
        f"scale={scale or 'base'} workers={args.workers} elapsed={elapsed:.1f}s"
    )
    if store is not None:
        # Uniform across store backends: hit/miss and integrity counters are
        # always reported, so a clean run shows torn-lines=0 instead of
        # nothing — after-the-fact service telemetry needs the explicit zero.
        summary += (
            f" cache-dir={args.cache_dir}"
            f" cache-hits={store.stats.hits} cache-misses={store.stats.misses}"
            f" torn-lines={store.stats.torn_lines}"
            f" checksum-failures={store.stats.checksum_failures}"
        )
    # Uniform across executor backends: attempts= always, recovery counters
    # when they fired (lease requeues of the queue backend included).
    summary += f" [fabric: {executor.telemetry.summary()}]"
    soa = soa_telemetry_snapshot()
    if soa.get("slots_run"):
        # SoA-tier observability for serial/in-process runs (process-pool
        # workers keep their own accumulators): how much executed on the
        # compiled tier, how often slots fell back, how many quiet cycles
        # were jumped over, and how well the stream groups' occurrence memo
        # and the busy-pattern memo behind its misses held up.
        def hit_rate(name: str) -> float:
            lookups = soa[f"{name}_hits"] + soa[f"{name}_misses"]
            return soa[f"{name}_hits"] / lookups if lookups else 0.0

        summary += (
            f" [soa: slots_run={soa['slots_run']}"
            f" scalar_fallbacks={soa['scalar_fallbacks']}"
            f" cycles_fast_forwarded={soa['cycles_fast_forwarded']}"
            f" occurrence_hit_rate={hit_rate('occurrence'):.1%}"
            f" busy_cache_hit_rate={hit_rate('busy_cache'):.1%}"
        )
        if soa.get("busy_cache_evictions"):
            summary += f" busy_cache_evictions={soa['busy_cache_evictions']}"
        if soa.get("frame_completions"):
            # MultiPathRB control frames: completed, and handed to a drain.
            summary += (
                f" frame_completions={soa['frame_completions']}"
                f" frame_drains={soa['frame_drains']}"
            )
        summary += "]"
    print(summary + "\n", file=status)

    if args.export_meta:
        # Machine-readable run metadata, kept off stdout so the exported rows
        # stay byte-comparable across backends while the telemetry that
        # produced them is still inspectable after the fact.
        meta = {
            "spec": spec.name,
            "scale": scale or "base",
            "workers": args.workers,
            "backend": args.backend,
            "elapsed_s": elapsed,
            "fabric": executor.telemetry.snapshot(),
            "store": store.stats.snapshot() if store is not None else None,
            "soa": soa if soa.get("slots_run") else None,
        }
        with open(args.export_meta, "w", encoding="utf8") as handle:
            json.dump(meta, handle, indent=2)
            handle.write("\n")
        print(f"run metadata written to {args.export_meta}", file=sys.stderr)

    rows = list(rows)
    if args.export == "json":
        print(json.dumps(rows, indent=2))
    elif args.export == "csv":
        sys.stdout.write(to_csv(rows))
    else:
        print(format_table(rows, title=None))
    return 0


def _command_submit(args) -> int:
    from ..service.frontend import submit
    from ..service.queue import DEFAULT_LEASE_SECONDS, QueueError
    from .driver import resolve_context

    try:
        from ..registry import STORE_BACKENDS

        STORE_BACKENDS.get(args.store_backend)  # typo → usage error, not traceback
        spec = _resolve_spec(args)
        scale = _resolve_scale(spec, args.scale)
        context = resolve_context(spec, scale=scale)
        submit(
            spec,
            context,
            queue_dir=args.queue,
            store_dir=args.store,
            store_backend=args.store_backend,
            lease_seconds=args.lease if args.lease is not None else DEFAULT_LEASE_SECONDS,
        )
    except (RegistryError, SpecValidationError, QueueError) as exc:
        return _usage_error(exc)
    return 0


def _command_serve(args) -> int:
    from ..service.frontend import serve
    from ..service.queue import QueueError

    try:
        return serve(
            args.queue,
            workers=args.workers,
            store_dir=args.store,
            idle_exit=args.idle_exit,
        )
    except QueueError as exc:
        return _usage_error(exc)


def _command_status(args) -> int:
    from ..service.frontend import status
    from ..service.queue import QueueError

    try:
        return status(args.queue, args.group)
    except QueueError as exc:
        return _usage_error(exc)


def _command_watch(args) -> int:
    from ..service.frontend import watch
    from ..service.queue import QueueError

    try:
        return watch(args.queue, args.group, poll_interval=args.poll, timeout=args.timeout)
    except QueueError as exc:
        return _usage_error(exc)
    except KeyboardInterrupt:
        return 130


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        print(_list_experiments())
        return 0
    if args.command == "describe":
        return _command_describe(args)
    if args.command == "submit":
        return _command_submit(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "status":
        return _command_status(args)
    if args.command == "watch":
        return _command_watch(args)
    return _command_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
