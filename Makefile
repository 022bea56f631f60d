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
# Friis power-sum and traced configurations).  Both labels use --tiling on,
# which resolves to the auto threshold for the suite (small deployments
# stay dense — forcing CSR onto them was the DUAL/MAPSZ regression in
# BENCH_6) and forces the sparse CSR tier for the paper-scale macros, so
# the requires_tiling 10^5-node macros run under both labels.
BENCH_RUNTIME_BASELINE ?= cohort
BENCH_RUNTIME_CURRENT ?= soa
BENCH_TILING ?= on
# PR has no default: a capture rewrites BENCH_$(PR).json in place, so a bare
# `make bench` must not overwrite a committed file.
bench:
	@test -n "$(PR)" || { echo "make bench: set PR=<n> to capture into BENCH_<n>.json (e.g. make bench PR=20)" >&2; exit 2; }
	$(PYTHON) benchmarks/capture.py --pr $(PR) --label current --runtime $(BENCH_RUNTIME_CURRENT) --tiling $(BENCH_TILING)
	for w in $(PERFBENCH_WORKLOADS); do $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1 || exit 1; done

# Capture the pre-change baseline (run this before starting a perf change).
bench-baseline:
	@test -n "$(PR)" || { echo "make bench-baseline: set PR=<n> to capture into BENCH_<n>.json (e.g. make bench-baseline PR=20)" >&2; exit 2; }
	$(PYTHON) benchmarks/capture.py --pr $(PR) --label baseline --runtime $(BENCH_RUNTIME_BASELINE) --tiling $(BENCH_TILING)

# CI smoke (CI's bench-smoke job runs exactly this target): verify the
# captured BENCH_*.json files exist and BENCH_10.json's suite hashes (the
# newest capture) reproduce, run the traced sample of every
# PERFBENCH_WORKLOADS entry, then check exports are byte-identical SoA-on vs
# SoA-off — FIG5 for the unit-disk disjunction kernels, the Friis smoke spec
# for the power-sum (+ loss) kernels — and sparse vs dense link state
# for FIG5 and for JAM, whose jammer-joined slot occurrences fall back to the
# scalar loop and so resolve their rounds from sparse link-state blocks.
# FIG7 (NeighborWatchRB, capture-free unit disk) is diffed twice: cohort
# runtime vs scalar loop with the SoA kernels pinned off on both sides (with
# them on, every FIG7 slot compiles and no cohort runtime is built), and SoA
# kernels vs scalar loop.  EPID (the epidemic flood) is diffed SoA kernels vs
# scalar loop too: its slots compile on the epidemic kernel.  So is the
# MultiPathRB lying smoke spec, which runs the stream kernel's frame drains
# under lying devices (no built-in experiment runs MultiPathRB with liars at
# small scale), and so is the lossy stream smoke spec: NeighborWatchRB and
# MultiPathRB on a unit disk with loss 0.1, the one check that compares the
# stream kernels' batched loss draws with the scalar loop's (FIG5 and FIG7 are
# lossless; the Friis smoke spec diffs SoA against the cohort tier).  Last,
# the 10^5-node epidemic macro of benchmarks/capture.py
# is built and run with run_scenario, and its record hash must equal the one
# BENCH_10.json stores (about 10 s and 410 MB): it pins the node-scheduled
# construction (the wave colouring, owner-column epidemic groups) at the
# scale no smaller check reaches.
BENCH_CAPTURES = BENCH_3.json BENCH_4.json BENCH_6.json BENCH_7.json BENCH_9.json BENCH_10.json

bench-smoke:
	for f in $(BENCH_CAPTURES); do test -f $$f || { echo "$$f missing from the perf trajectory (see make bench)" >&2; exit 1; }; done
	$(PYTHON) benchmarks/capture.py --check BENCH_10.json
	for w in $(PERFBENCH_WORKLOADS); do $(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1 || exit 1; done
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run FIG5 --scale small --export json > /tmp/soa.json
	REPRO_SOA_KERNELS=0 $(PYTHON) -m repro.experiments run FIG5 --scale small --export json > /tmp/nosoa.json
	cmp /tmp/soa.json /tmp/nosoa.json
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run --spec examples/specs/friis_smoke.toml --export json > /tmp/friis-soa.json
	REPRO_SOA_KERNELS=0 $(PYTHON) -m repro.experiments run --spec examples/specs/friis_smoke.toml --export json > /tmp/friis-nosoa.json
	cmp /tmp/friis-soa.json /tmp/friis-nosoa.json
	REPRO_SPATIAL_TILING=0 $(PYTHON) -m repro.experiments run FIG5 --scale small --export json > /tmp/fig5-dense.json
	REPRO_SPATIAL_TILING=1 $(PYTHON) -m repro.experiments run FIG5 --scale small --export json > /tmp/fig5-tiled.json
	cmp /tmp/fig5-dense.json /tmp/fig5-tiled.json
	REPRO_SPATIAL_TILING=0 $(PYTHON) -m repro.experiments run JAM --scale small --export json > /tmp/jam-dense.json
	REPRO_SPATIAL_TILING=1 $(PYTHON) -m repro.experiments run JAM --scale small --export json > /tmp/jam-tiled.json
	cmp /tmp/jam-dense.json /tmp/jam-tiled.json
	REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=1 $(PYTHON) -m repro.experiments run FIG7 --scale small --export json > /tmp/fig7-cohort.json
	REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=0 $(PYTHON) -m repro.experiments run FIG7 --scale small --export json > /tmp/fig7-scalar.json
	cmp /tmp/fig7-cohort.json /tmp/fig7-scalar.json
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run FIG7 --scale small --export json > /tmp/fig7-soa.json
	cmp /tmp/fig7-soa.json /tmp/fig7-scalar.json
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run EPID --scale small --export json > /tmp/epid-soa.json
	REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=0 $(PYTHON) -m repro.experiments run EPID --scale small --export json > /tmp/epid-scalar.json
	cmp /tmp/epid-soa.json /tmp/epid-scalar.json
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run --spec examples/specs/multipath_lying_smoke.toml --export json > /tmp/mplie-soa.json
	REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=0 $(PYTHON) -m repro.experiments run --spec examples/specs/multipath_lying_smoke.toml --export json > /tmp/mplie-scalar.json
	cmp /tmp/mplie-soa.json /tmp/mplie-scalar.json
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run --spec examples/specs/stream_loss_smoke.toml --export json > /tmp/streamloss-soa.json
	REPRO_SOA_KERNELS=0 REPRO_COHORT_RUNTIME=0 $(PYTHON) -m repro.experiments run --spec examples/specs/stream_loss_smoke.toml --export json > /tmp/streamloss-scalar.json
	cmp /tmp/streamloss-soa.json /tmp/streamloss-scalar.json
	$(PYTHON) -c "import json, sys; sys.path.insert(0, 'benchmarks'); \
	from capture import MACROS, series_hash; \
	from repro.experiments.factories import UniformDeploymentFactory; \
	from repro.sim.builder import run_scenario; \
	from repro.sim.config import ScenarioConfig; \
	m = next(m for m in MACROS if m['name'] == 'epidemic-unitdisk-100k'); \
	dep = UniformDeploymentFactory(m['num_nodes'], m['map_size'], m['map_size'])(m['seed']); \
	cfg = ScenarioConfig(protocol=m['protocol'], radius=m['radius'], message_length=m['message_length'], seed=m['seed'], channel=m['channel']); \
	got = series_hash(run_scenario(dep, cfg).to_record()); \
	want = json.load(open('BENCH_10.json'))['runs']['current']['macros'][m['name']]['result_sha256']; \
	print(m['name'], 'result_sha256', got, 'stored', want); sys.exit(got != want)"
	rm -f /tmp/soa.json /tmp/nosoa.json /tmp/friis-soa.json /tmp/friis-nosoa.json /tmp/fig5-dense.json /tmp/fig5-tiled.json /tmp/jam-dense.json /tmp/jam-tiled.json /tmp/fig7-cohort.json /tmp/fig7-scalar.json /tmp/fig7-soa.json /tmp/epid-soa.json /tmp/epid-scalar.json /tmp/mplie-soa.json /tmp/mplie-scalar.json /tmp/streamloss-soa.json /tmp/streamloss-scalar.json

# CI smoke for the fault-tolerant fabric: the focused chaos/integrity test
# files, then a seeded chaos-backend run that must export byte-identical
# rows to a plain run (every injected fault recovered).  No --timeout here:
# seeded plans may draw "delay" faults, and with a budget in force those are
# deliberately stretched past it (the injected sleep would dominate the
# smoke's wall-clock); the timeout path is covered by the pytest files.
chaos-smoke:
	$(PYTHON) -m pytest -x -q tests/test_backends.py tests/test_store_integrity.py
	$(PYTHON) -m repro.experiments run DUAL --scale small --export json > /tmp/chaos-plain.json
	REPRO_CHAOS_SEED=7 REPRO_CHAOS_RATE=0.7 $(PYTHON) -m repro.experiments run DUAL --scale small --backend chaos --max-retries 3 --export json > /tmp/chaos-faulty.json
	cmp /tmp/chaos-plain.json /tmp/chaos-faulty.json
	rm -f /tmp/chaos-plain.json /tmp/chaos-faulty.json

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
