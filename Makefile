# Convenience entry points; every target assumes the repo root as cwd.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-baseline bench-smoke chaos-smoke service-smoke profile

# Tier-1 verification, the same command CI runs: collects tests/, the
# benchmarks/ suite (pytest-benchmark) and perfbench/test_perfbench.py.
test:
	$(PYTHON) -m pytest -x -q

# The repository benchmark's workloads (BENCHMARK.json): the construction
# layers (epidemic-10k), the SoA stream kernel (multipath-lying), the
# quiet-cycle fast-forward of sweep-small's 13 runs that never terminate, and
# unit-disk capture on the cohort tier and the scalar channel loop
# (nw-capture-2400).  `make bench` and `make bench-smoke` run one traced
# sample of each, which fails on any record-hash mismatch or layer span that
# did not fire.
PERFBENCH_WORKLOADS = epidemic-10k multipath-lying sweep-small nw-capture-2400

# Capture a post-change benchmark run into BENCH_$(PR).json (merges with the
# stored baseline and computes speedups; fails on series-hash drift), then
# run the traced sample of every PERFBENCH_WORKLOADS entry.  The
# cross-PR trend report (benchmarks/trend.py) is on demand only: it compares
# single-shot captures and flags noise as regressions.
# PR 7/9's varied knob is the protocol execution runtime: the baseline is
# the cohort tier with the struct-of-arrays kernels pinned off, the current
# run the SoA slot kernels (--runtime soa; since PR 9 they also cover loss,
# Friis power-sum and traced configurations).  The node count alone picks
# the link-state form under both labels: the dense matrix up to 4,096
# nodes, the sparse CSR tier above (the 10^5-node macros).
BENCH_RUNTIME_BASELINE ?= cohort
BENCH_RUNTIME_CURRENT ?= soa
# PR has no default: a capture rewrites BENCH_$(PR).json in place, so a bare
# `make bench` must not overwrite a committed file.
bench:
	@test -n "$(PR)" || { echo "make bench: set PR=<n> to capture into BENCH_<n>.json (e.g. make bench PR=20)" >&2; exit 2; }
	$(PYTHON) benchmarks/capture.py --pr $(PR) --label current --runtime $(BENCH_RUNTIME_CURRENT)
	for w in $(PERFBENCH_WORKLOADS); do $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1 || exit 1; done

# Capture the pre-change baseline (run this before starting a perf change).
bench-baseline:
	@test -n "$(PR)" || { echo "make bench-baseline: set PR=<n> to capture into BENCH_<n>.json (e.g. make bench-baseline PR=20)" >&2; exit 2; }
	$(PYTHON) benchmarks/capture.py --pr $(PR) --label baseline --runtime $(BENCH_RUNTIME_BASELINE)

# CI smoke (CI's bench-smoke job runs exactly this target): verify the
# captured BENCH_*.json files exist and BENCH_10.json's suite hashes (the
# newest capture) reproduce, run the traced sample of every
# PERFBENCH_WORKLOADS entry, then check exports are byte-identical SoA-on vs
# SoA-off — FIG5 for the unit-disk disjunction kernels, the Friis smoke spec
# for the power-sum (+ loss) kernels.  (Sparse vs dense link state for FIG5
# and JAM is a tier-1 test, tests/test_tiling.py::TestExperimentExports: the
# node count picks the form, so only an in-process threshold can move it.)
# FIG7 (NeighborWatchRB, capture-free unit disk) is diffed twice: cohort
# runtime vs scalar loop with the SoA kernels pinned off on both sides (with
# them on, every FIG7 slot compiles and no cohort runtime is built), and SoA
# kernels vs scalar loop.  EPID (the epidemic flood) is diffed SoA kernels vs
# scalar loop too: its slots compile on the epidemic kernel.  So is the
# MultiPathRB lying smoke spec, which runs the stream kernel's frame drains
# under lying devices (no built-in experiment runs MultiPathRB with liars at
# small scale), the lossy stream smoke spec: NeighborWatchRB and
# MultiPathRB on a unit disk with loss 0.1, the one check that compares the
# stream kernels' batched loss draws with the scalar loop's (FIG5 and FIG7 are
# lossless; the Friis smoke spec diffs SoA against the cohort tier), and the
# MultiPathRB jammer smoke spec, the one check in which MultiPathRB frame
# groups fall back to the scalar loop mid-frame (322 fallbacks).  Every
# export goes to one temporary directory per run, removed at the end (also
# on failure), so two checkouts can run this target at once.  Last,
# each benchmarks/capture.py macro of BENCH_SMOKE_MACROS, every BENCH_10.json
# macro that runs in seconds, is built and run with run_scenario, and its
# record hash must equal the one BENCH_10.json stores (the first three take
# about 1 s together, the 10^5-node epidemic about 10 s and 410 MB).
# epidemic-friis-1200 is the one stored node schedule between 150 and 2,048
# devices; the 10^5-node epidemic pins the node-scheduled construction (the
# wave colouring, owner-column epidemic groups) at the scale no smaller check
# reaches.  nw-unitdisk-100k (minutes) and the queue-service macro are not
# run here.
BENCH_CAPTURES = BENCH_3.json BENCH_4.json BENCH_6.json BENCH_7.json BENCH_9.json BENCH_10.json
BENCH_SMOKE_MACROS = epidemic-friis-1200 nw-friis-600 nw-unitdisk-1200 epidemic-unitdisk-100k

bench-smoke:
	for f in $(BENCH_CAPTURES); do test -f $$f || { echo "$$f missing from the perf trajectory (see make bench)" >&2; exit 1; }; done
	$(PYTHON) benchmarks/capture.py --check BENCH_10.json
	for w in $(PERFBENCH_WORKLOADS); do $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1 || exit 1; done
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run FIG5 --scale small --export json > $$tmp/soa.json; \
	REPRO_SOA_KERNELS=0 $(PYTHON) -m repro.experiments run FIG5 --scale small --export json > $$tmp/nosoa.json; \
	cmp $$tmp/soa.json $$tmp/nosoa.json; \
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run --spec examples/specs/friis_smoke.toml --export json > $$tmp/friis-soa.json; \
	REPRO_SOA_KERNELS=0 $(PYTHON) -m repro.experiments run --spec examples/specs/friis_smoke.toml --export json > $$tmp/friis-nosoa.json; \
	cmp $$tmp/friis-soa.json $$tmp/friis-nosoa.json; \
	REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=1 $(PYTHON) -m repro.experiments run FIG7 --scale small --export json > $$tmp/fig7-cohort.json; \
	REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=0 $(PYTHON) -m repro.experiments run FIG7 --scale small --export json > $$tmp/fig7-scalar.json; \
	cmp $$tmp/fig7-cohort.json $$tmp/fig7-scalar.json; \
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run FIG7 --scale small --export json > $$tmp/fig7-soa.json; \
	cmp $$tmp/fig7-soa.json $$tmp/fig7-scalar.json; \
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run EPID --scale small --export json > $$tmp/epid-soa.json; \
	REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=0 $(PYTHON) -m repro.experiments run EPID --scale small --export json > $$tmp/epid-scalar.json; \
	cmp $$tmp/epid-soa.json $$tmp/epid-scalar.json; \
	for spec in multipath_lying_smoke stream_loss_smoke multipath_jam_smoke; do \
		REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run --spec examples/specs/$$spec.toml --export json > $$tmp/$$spec-soa.json; \
		REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=0 $(PYTHON) -m repro.experiments run --spec examples/specs/$$spec.toml --export json > $$tmp/$$spec-scalar.json; \
		cmp $$tmp/$$spec-soa.json $$tmp/$$spec-scalar.json; \
	done
	for macro in $(BENCH_SMOKE_MACROS); do \
		$(PYTHON) -c "import json, sys; sys.path.insert(0, 'benchmarks'); \
		from capture import MACROS, series_hash; \
		from repro.experiments.factories import UniformDeploymentFactory; \
		from repro.sim.builder import run_scenario; \
		from repro.sim.config import ScenarioConfig; \
		m = next(m for m in MACROS if m['name'] == '$$macro'); \
		dep = UniformDeploymentFactory(m['num_nodes'], m['map_size'], m['map_size'])(m['seed']); \
		cfg = ScenarioConfig(protocol=m['protocol'], radius=m['radius'], message_length=m['message_length'], seed=m['seed'], channel=m['channel']); \
		got = series_hash(run_scenario(dep, cfg).to_record()); \
		want = json.load(open('BENCH_10.json'))['runs']['current']['macros'][m['name']]['result_sha256']; \
		print(m['name'], 'result_sha256', got, 'stored', want); sys.exit(got != want)" || exit 1; \
	done

# CI smoke for the fault-tolerant fabric: the focused chaos/integrity test
# files, then a seeded chaos-backend run that must export byte-identical
# rows to a plain run (every injected fault recovered), both exported into a
# temporary directory removed at the end.  No --timeout here:
# seeded plans may draw "delay" faults, and with a budget in force those are
# deliberately stretched past it (the injected sleep would dominate the
# smoke's wall-clock); the timeout path is covered by the pytest files.
chaos-smoke:
	$(PYTHON) -m pytest -x -q tests/test_backends.py tests/test_store_integrity.py
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(PYTHON) -m repro.experiments run DUAL --scale small --export json > $$tmp/chaos-plain.json; \
	REPRO_CHAOS_SEED=7 REPRO_CHAOS_RATE=0.7 $(PYTHON) -m repro.experiments run DUAL --scale small --backend chaos --max-retries 3 --export json > $$tmp/chaos-faulty.json; \
	cmp $$tmp/chaos-plain.json $$tmp/chaos-faulty.json

# CI smoke for the distributed sweep service: the focused queue/store test
# files, then the end-to-end drill — submit a small sweep, run two worker
# processes, SIGKILL one mid-job (its lease expires and the job requeues),
# and byte-diff both the replayed export and the shared store against a
# plain serial run.
service-smoke:
	$(PYTHON) -m pytest -x -q tests/test_service.py tests/test_store_concurrency.py
	$(PYTHON) -m repro.service smoke FIG5 --scale small

# Profile one experiment's sweep (top cumulative hot spots to stderr).
profile:
	$(PYTHON) -m repro.experiments run FIG7 --scale small --profile
