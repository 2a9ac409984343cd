# AutomataZoo build/verify targets. `make ci` is the full gate.

GO ?= go

# Per-target budget for the fuzz-short gate. The checked-in seed corpora
# under internal/difftest/testdata/fuzz/ run deterministically on every
# plain `go test`; this budget buys mutation time on top.
FUZZTIME ?= 10s

.PHONY: ci build vet bench-module fmt-check test race race-parallel allocguard prometheus-golden explain-golden suite-golden fuzz-short soak loc clean

ci: vet fmt-check build test race-parallel race allocguard prometheus-golden explain-golden fuzz-short soak bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is its own module (the repository benchmark, and the only
# instrument speed is judged by — see bench/README.md for the paired
# protocol): the root ./... patterns above cannot see it, and
# bench/cmd/azprobe is the one importer of internal/ outside this module —
# a refactor that breaks it silently costs every per-layer benchmark
# metric. Build, vet and smoke-test it here. The telemetry-overhead budget
# (<2%) is judged against its hooks.overhead_ratio.* probes and is NOT met
# today: `bash bench/run.sh -layers` read nfa 1.27-1.53 / dfa 1.18-1.47 /
# prefilter 1.69-2.27 while the engines observed the frontier histogram
# and metered dfa bytes per symbol, and 0.91-1.36 / 0.92-1.31 / 0.99-1.45
# since they batch both (three runs each, 2-vCPU box; the hooked command
# also checkpoints and writes -metrics and -report; ROADMAP item 12).
bench-module:
	$(GO) build -C bench ./...
	$(GO) vet -C bench ./...
	$(GO) test -C bench -short ./...

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
# allocation-free with no tracer/registry attached, on the list and on the
# bitset frontier, and all three
# engines' RunChecked must collapse to Run under Attach(hooks.Set{}). A
# degraded dfa component's fallback step allocates nothing either, and dfa
# subset construction at most once per new dstate, amortised.
# The second line guards the set-up passes the same way, on allocation
# counts rather than timings: Builder.Build and acmatch.Compile allocate a
# constant number of objects, PrefixMerge a bounded number per state, RF
# class synthesis none, and bitnfa.Stride8 a bounded number per output
# state.
allocguard:
	$(GO) test -run 'TestNilTelemetryZeroAllocs|TestDisabledLiveTelemetryZeroAllocs|TestBitsetStepZeroAllocs|TestFrontierStepZeroAllocs|TestFallbackStepZeroAllocs|TestConstructAllocsPerDstate' -count=1 -v ./internal/sim/ ./internal/dfa/ ./internal/prefilter/
	$(GO) test -run 'TestBuildAllocsConstant|TestPrefixMergeAllocsPerState|TestSymbolClassZeroAllocs|TestCompileAllocsConstant|TestStride8Allocs' -count=1 -v ./internal/automata/ ./internal/transform/ ./internal/rf/ ./internal/acmatch/ ./internal/bitnfa/

# Byte-stability gate for the /metrics surface: the exposition golden
# file plus the cross-worker-count determinism check (Table I's merged
# registry renders identically at -j 1 and -j 4).
prometheus-golden:
	$(GO) test -run 'TestWritePrometheusGolden|TestPrometheusByteStableAcrossWorkers' -count=1 -v ./internal/telemetry/ ./internal/experiments/

# Byte-stability gate for `azoo explain`: the golden cost plan for one
# small kernel plus the cross-(workers × segments) determinism matrix and
# the report-attribution identity, on both engines, and the golden
# `-states` heatmap. Regenerate the goldens after intentional attribution
# or profile changes with:
#   go test ./cmd/azoo/ -run 'TestExplainGolden|TestExplainStatesGolden' -update
explain-golden:
	$(GO) test -run 'TestExplainGolden|TestExplainStatesGolden|TestExplainByteIdenticalAcrossWorkersAndSegments|TestExplainReportIdentity' -count=1 -v ./cmd/azoo/

# Regenerate the suite fingerprint (internal/core/testdata/suite.golden):
# one line per kernel with its shape, the SHA-256 of its MNRL export and of
# its input stimulus, and the report count and report-stream SHA-256 of
# nfa, dfa, prefilter and a starved dfa. TestSuiteGolden, part of `make
# test`, compares it against a fresh build and the engines with each
# other; regenerate only for an intended change to a generator, loader,
# compiler, set-up pass or engine output, and name the moved lines.
suite-golden:
	$(GO) test ./internal/core/ -run TestSuiteGolden -count=1 -update

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
	$(GO) test -run '^$$' -fuzz 'FuzzCompileMatchesReference' -fuzztime $(FUZZTIME) ./internal/acmatch/
	$(GO) test -run '^$$' -fuzz 'FuzzEngineMatchesReference' -fuzztime $(FUZZTIME) ./internal/dfa/
	$(GO) test -run '^$$' -fuzz 'FuzzEngineMatchesReference' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz 'FuzzEngineMatchesReference' -fuzztime $(FUZZTIME) ./internal/prefilter/
	$(GO) test -run '^$$' -fuzz 'FuzzStride8MatchesReference' -fuzztime $(FUZZTIME) ./internal/bitnfa/

# The soak, the acceptance gate for engine changes. First 200 seeded
# fault-injection trials: every injected panic/deadline/trip must surface
# as a structured error with the same class at -j 1 and -j NumCPU, and
# un-faulted controls stay byte-identical. Then the differential oracle,
# 500 seeded trials of the engine × transform × mode matrix (the DFA
# starved and tight governor cache budgets included), one crash-resume cell
# per trial (killed at seed-drawn save points, resumed, held to the
# uninterrupted run) and the bit-level trial.
soak:
	AZOO_SOAK_SEEDS=200 $(GO) test -run 'TestFaultSoak' -count=1 ./internal/guard/
	$(GO) run ./cmd/azoo difftest -seeds 500

# The number ROADMAP asks every PR to report before/after: non-test Go
# lines under cmd/, internal/ and examples/.
loc:
	@find cmd internal examples -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

clean:
	$(GO) clean ./...
