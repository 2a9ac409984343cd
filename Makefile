# AutomataZoo build/verify targets. `make ci` is the full gate.

GO ?= go

# bench-snapshot / benchdiff knobs: label of the artifact to write, the
# kernel filter, and the two manifests to compare.
BENCH_LABEL ?= local
BENCH_KERNELS ?=
OLD ?=
NEW ?=

# Per-target budget for the fuzz-short gate. The checked-in seed corpora
# under internal/difftest/testdata/fuzz/ run deterministically on every
# plain `go test`; this budget buys mutation time on top.
FUZZTIME ?= 10s

# benchdiff-ci knobs: the checked-in baseline, the kernel set and suite
# parameters it was recorded with (keep in sync when regenerating), and a
# generous regression threshold — CI machines vary far more than the <5%
# gate used for like-for-like comparisons on one box.
BENCHDIFF_CI_BASELINE ?= BENCH_ci.json
BENCHDIFF_CI_KERNELS ?= Brill,Hamming 18x3
BENCHDIFF_CI_SCALE ?= 0.02
BENCHDIFF_CI_INPUT ?= 100000
BENCHDIFF_CI_THRESHOLD ?= 40%
BENCHDIFF_CI_SEGMENTS ?= 4

.PHONY: ci build vet bench-module fmt-check test race race-parallel allocguard prometheus-golden explain-golden fuzz-short fault-soak crash-soak difftest-soak bench bench-engines bench-parallel bench-segments bench-prefilter bench-snapshot benchdiff benchdiff-ci clean

ci: vet fmt-check build bench-module test race-parallel race allocguard prometheus-golden explain-golden fuzz-short fault-soak crash-soak benchdiff-ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is its own module (the repository benchmark): the root ./...
# patterns above cannot see it, and bench/cmd/azprobe is the one importer
# of internal/ outside this module — a refactor that breaks it silently
# costs every per-layer benchmark metric. Build and vet it here.
bench-module:
	$(GO) build -C bench ./...
	$(GO) vet -C bench ./...

# gofmt cleanliness: fail listing any file that gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The race detector slows the experiment harnesses ~10x; the default
# 10-minute per-package timeout is not enough on small machines.
race:
	$(GO) test -race -timeout 30m ./...

# Fast, focused race coverage of the parallel execution layer: the
# worker pool itself, partitioned parallel runs, the shared telemetry
# registry, and the parallel stats harness. `race` covers these too;
# this target fails fast and stays cheap enough to run on every change.
race-parallel:
	$(GO) test -race -count=1 ./internal/parallel/ ./internal/telemetry/ ./internal/guard/
	$(GO) test -race -count=1 -run 'Parallel' ./internal/partition/ ./internal/stats/

# Guard the disabled-hook fast path: sim.Engine.Run must stay
# allocation-free with no tracer/profile/registry attached, and all three
# engines' RunChecked must collapse to Run under Attach(hooks.Set{}).
# The second line guards the set-up passes the same way, on allocation
# counts rather than timings: Builder.Build allocates a constant number of
# objects, PrefixMerge a bounded number per state, RF class synthesis none.
allocguard:
	$(GO) test -run 'TestNilTelemetryZeroAllocs|TestDisabledLiveTelemetryZeroAllocs' -count=1 -v ./internal/sim/ ./internal/dfa/ ./internal/prefilter/
	$(GO) test -run 'TestBuildAllocsConstant|TestPrefixMergeAllocsPerState|TestSymbolClassZeroAllocs' -count=1 -v ./internal/automata/ ./internal/transform/ ./internal/rf/

# Byte-stability gate for the /metrics surface: the exposition golden
# file plus the cross-worker-count determinism check (Table I's merged
# registry renders identically at -j 1 and -j 4).
prometheus-golden:
	$(GO) test -run 'TestWritePrometheusGolden|TestPrometheusByteStableAcrossWorkers' -count=1 -v ./internal/telemetry/ ./internal/experiments/

# Byte-stability gate for `azoo explain`: the golden cost plan for one
# small kernel plus the cross-(workers × segments) determinism matrix and
# the report-attribution identity, on both engines. Regenerate the golden
# after intentional attribution changes with:
#   go test ./cmd/azoo/ -run TestExplainGolden -update
explain-golden:
	$(GO) test -run 'TestExplainGolden|TestExplainByteIdenticalAcrossWorkersAndSegments|TestExplainReportIdentity' -count=1 -v ./cmd/azoo/

# Short differential-fuzzing gate: each oracle target gets a fixed
# FUZZTIME of mutation on top of the always-executed deterministic seed
# corpus (go permits one -fuzz target per invocation, hence one run per
# target).
fuzz-short:
	$(GO) test -run '^$$' -fuzz 'FuzzSimVsDFA' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz 'FuzzCompressPreservesReports' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz 'FuzzSeqVsSegmented' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz 'FuzzSimVsPrefilter' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz 'FuzzRegexCompile' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz 'FuzzMNRLLoad' -fuzztime $(FUZZTIME) ./internal/mnrl/

# Resilience acceptance gate: 200 seeded fault-injection trials (every
# injected panic/deadline/trip must surface as a structured error with the
# same class at -j 1 and -j NumCPU; un-faulted controls byte-identical),
# then a forced DFA→NFA degradation soak through the differential oracle.
fault-soak:
	AZOO_SOAK_SEEDS=200 $(GO) test -run 'TestFaultSoak' -count=1 ./internal/guard/
	$(GO) run ./cmd/azoo difftest -seeds 200 -pair sim-dfa -force-fallback

# Crash-recovery acceptance gate: 200 seeded trials of the
# straight-vs-resumed oracle. Each trial checkpoints a scan, kills it at
# a seed-drawn save point (crash:ckpt.save fault), resumes from the
# durable checkpoint, and requires the stitched run to match an
# uninterrupted reference exactly — reports, engine stats, telemetry
# registry, and attribution — across the j × segments × engine matrix.
crash-soak:
	$(GO) run ./cmd/azoo difftest -seeds 200 -pair straight-vs-resumed

# Long cross-engine soak (the acceptance gate for engine changes):
# 500 seeded trials through every comparable engine pair.
difftest-soak:
	$(GO) run ./cmd/azoo difftest -seeds 500

# Engine hot-loop microbenchmarks (the <2% telemetry-overhead budget is
# judged against these).
bench-engines:
	$(GO) test -bench 'BenchmarkNFAEngineThroughput|BenchmarkDFAEngineThroughput|BenchmarkTable3' -benchmem -run '^$$' .

# Sequential-vs-parallel throughput of the worker-pool execution layer;
# the j=1 / j=N ratio of each pair is the parallel speedup.
bench-parallel:
	$(GO) test -bench 'BenchmarkParallel' -benchmem -run '^$$' .

# Segment-parallel scan throughput on one multi-MB stream; the seg=1 /
# seg=N ratio is the segment speedup (EXPERIMENTS.md "Scaling on large
# streams" reads these numbers).
bench-segments:
	$(GO) test -bench 'BenchmarkSegmentScan' -benchmem -run '^$$' .

# Two-stage literal prefilter vs plain NFA simulation on the same ClamAV
# scan; the ratio is the literal-anchor speedup at the workload's match
# density (EXPERIMENTS.md "Two-stage prefilter" reads these numbers).
bench-prefilter:
	$(GO) test -bench 'BenchmarkPrefilterScan|BenchmarkSimScan' -benchmem -run '^$$' ./internal/prefilter/

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Write a BENCH_$(BENCH_LABEL).json run manifest for the current tree —
# one half of the continuous-benchmarking workflow (EXPERIMENTS.md).
# BENCH_KERNELS narrows the kernel set: make bench-snapshot BENCH_KERNELS=Snort
bench-snapshot:
	$(GO) run ./cmd/azoo bench -label $(BENCH_LABEL) $(if $(BENCH_KERNELS),-kernels "$(BENCH_KERNELS)")

# Compare two manifests and fail on a >5% throughput regression:
# make benchdiff OLD=BENCH_main.json NEW=BENCH_local.json
benchdiff:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchdiff OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./cmd/azoo benchdiff $(OLD) $(NEW)

# Continuous-benchmarking CI gate: re-measure the checked-in baseline's
# kernel set (plain rows plus @seg$(BENCHDIFF_CI_SEGMENTS) segment-parallel
# and @pf prefilter twins) and fail (exit 5) on a regression beyond the CI
# threshold. Regenerate the baseline after intentional perf changes with:
#   go run ./cmd/azoo bench -label ci -runs 3 -kernels "$(BENCHDIFF_CI_KERNELS)" \
#     -scale $(BENCHDIFF_CI_SCALE) -input $(BENCHDIFF_CI_INPUT) -j 1 \
#     -segments $(BENCHDIFF_CI_SEGMENTS) -prefilter -timestamp <RFC3339>
benchdiff-ci:
	$(GO) run ./cmd/azoo bench -label ci-new -runs 3 -kernels "$(BENCHDIFF_CI_KERNELS)" \
		-scale $(BENCHDIFF_CI_SCALE) -input $(BENCHDIFF_CI_INPUT) -j 1 \
		-segments $(BENCHDIFF_CI_SEGMENTS) -prefilter \
		-o BENCH_ci-new.json
	$(GO) run ./cmd/azoo benchdiff -threshold "$(BENCHDIFF_CI_THRESHOLD)" $(BENCHDIFF_CI_BASELINE) BENCH_ci-new.json; \
		rc=$$?; rm -f BENCH_ci-new.json; exit $$rc

clean:
	$(GO) clean ./...
