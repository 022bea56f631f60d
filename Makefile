# Convenience entry points; every target assumes the repo root as cwd.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-baseline bench-smoke chaos-smoke service-smoke profile

# Tier-1 verification, the same command CI runs: collects tests/, the
# benchmarks/ suite (pytest-benchmark) and perfbench/test_perfbench.py.
test:
	$(PYTHON) -m pytest -x -q

# Capture a post-change benchmark run into BENCH_$(PR).json (merges with the
# stored baseline and computes speedups; fails on series-hash drift), then
# run one traced epidemic-10k, multipath-lying and sweep-small sample set of
# the repository benchmark (the construction layers, the SoA stream kernel,
# and the quiet-cycle fast-forward of sweep-small's 13 runs that never
# terminate), each failing on any record-hash mismatch or layer span that
# did not fire.  The
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
	$(PYTHON) perfbench/run.py --workload epidemic-10k --seed 1 --seconds 1 --trace 1
	$(PYTHON) perfbench/run.py --workload multipath-lying --seed 1 --seconds 1 --trace 1
	$(PYTHON) perfbench/run.py --workload sweep-small --seed 1 --seconds 1 --trace 1
	$(PYTHON) perfbench/run.py --workload nw-capture-2400 --seed 1 --seconds 1 --trace 1

# Capture the pre-change baseline (run this before starting a perf change).
bench-baseline:
	@test -n "$(PR)" || { echo "make bench-baseline: set PR=<n> to capture into BENCH_<n>.json (e.g. make bench-baseline PR=20)" >&2; exit 2; }
	$(PYTHON) benchmarks/capture.py --pr $(PR) --label baseline --runtime $(BENCH_RUNTIME_BASELINE) --tiling $(BENCH_TILING)

# CI smoke: verify BENCH_10.json (the newest capture, as CI checks it) exists
# and its suite hashes reproduce, then check exports are byte-identical
# SoA-on vs SoA-off — FIG5 for the unit-disk disjunction kernels, the Friis
# smoke spec for the PR 9 power-sum (+ loss) kernels — and sparse vs dense
# link state for JAM, whose jammer-joined slot occurrences fall back to the
# scalar loop and so resolve their rounds from sparse link-state blocks.
# FIG7 (NeighborWatchRB, capture-free unit disk) is diffed twice: cohort
# runtime vs scalar loop with the SoA kernels pinned off on both sides (with
# them on, every FIG7 slot compiles and no cohort runtime is built), and SoA
# kernels vs scalar loop.  EPID (the epidemic flood) is diffed SoA kernels vs
# scalar loop too: its slots compile on the epidemic kernel.  So is the
# MultiPathRB lying smoke spec, which runs the stream kernel's frame drains
# under lying devices (no built-in experiment runs MultiPathRB with liars at
# small scale).
bench-smoke:
	$(PYTHON) benchmarks/capture.py --check BENCH_10.json
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run FIG5 --scale small --export json > /tmp/soa.json
	REPRO_SOA_KERNELS=0 $(PYTHON) -m repro.experiments run FIG5 --scale small --export json > /tmp/nosoa.json
	cmp /tmp/soa.json /tmp/nosoa.json
	REPRO_SOA_KERNELS=1 $(PYTHON) -m repro.experiments run --spec examples/specs/friis_smoke.toml --export json > /tmp/friis-soa.json
	REPRO_SOA_KERNELS=0 $(PYTHON) -m repro.experiments run --spec examples/specs/friis_smoke.toml --export json > /tmp/friis-nosoa.json
	cmp /tmp/friis-soa.json /tmp/friis-nosoa.json
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
	rm -f /tmp/soa.json /tmp/nosoa.json /tmp/friis-soa.json /tmp/friis-nosoa.json /tmp/jam-dense.json /tmp/jam-tiled.json /tmp/fig7-cohort.json /tmp/fig7-scalar.json /tmp/fig7-soa.json /tmp/epid-soa.json /tmp/epid-scalar.json /tmp/mplie-soa.json /tmp/mplie-scalar.json

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
