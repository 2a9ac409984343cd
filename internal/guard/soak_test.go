package guard_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"automatazoo/internal/difftest"
	"automatazoo/internal/guard"
	"automatazoo/internal/parallel"
	"automatazoo/internal/partition"
	"automatazoo/internal/randx"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
)

// faultClass reduces a governed run's outcome to what the resilience
// contract promises: nil, an isolated panic, or a typed budget trip.
// Anything else — an untyped error, a raw panic escaping the pool — is a
// contract violation.
type faultClass struct {
	Kind   string // "ok" | "panic" | "trip" | "other"
	Budget string // trip budget class, "" otherwise
}

func classify(err error) faultClass {
	if err == nil {
		return faultClass{Kind: "ok"}
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		if _, ok := pe.Value.(guard.InjectedPanic); !ok {
			return faultClass{Kind: "other", Budget: fmt.Sprintf("foreign panic: %v", pe.Value)}
		}
		return faultClass{Kind: "panic"}
	}
	if trip := guard.AsTrip(err); trip != nil {
		return faultClass{Kind: "trip", Budget: trip.Budget}
	}
	return faultClass{Kind: "other", Budget: err.Error()}
}

// governedRun executes up to six governed passes of the plan over input,
// stopping at the first fault, and returns the outcome class and the
// report stream of the completed passes.
func governedRun(p *partition.Plan, input []byte, workers int, spec string, specSeed uint64) (faultClass, []sim.Report, error) {
	inj, err := guard.ParseInjector(spec, specSeed)
	if err != nil {
		return faultClass{}, nil, err
	}
	g := guard.New(context.Background(), guard.Budget{})
	g.SetInjector(inj)
	var reports []sim.Report
	for pass := 0; pass < 6; pass++ {
		_, err := p.Run(context.Background(), [][]byte{input}, partition.RunOptions{
			Workers:  workers,
			Hooks:    segment.Hooks{Governor: g},
			OnReport: func(r sim.Report) { reports = append(reports, r) },
		})
		if err != nil {
			return classify(err), reports, nil
		}
	}
	return faultClass{Kind: "ok"}, reports, nil
}

// TestFaultSoak is the resilience acceptance gate (`make soak` runs
// it at 200 seeds): for every seed, a random automaton takes a
// deterministically chosen injected fault — panic, deadline, or budget
// trip, at a sim-chunk or slice boundary — under a governed parallel run.
// Every fault must surface as a structured error (never a crash, never a
// hang), and the fault class must be identical at -j 1 and -j NumCPU.
// The un-faulted control run must produce byte-identical report streams
// at both worker counts.
func TestFaultSoak(t *testing.T) {
	seeds := 40
	if s := os.Getenv("AZOO_SOAK_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad AZOO_SOAK_SEEDS %q", s)
		}
		seeds = n
	}
	kinds := []string{guard.FaultPanic, guard.FaultDeadline, guard.FaultTrip}
	sites := []string{guard.SiteSimChunk, guard.SitePartitionSlice}
	jN := runtime.NumCPU()
	if jN < 2 {
		jN = 2
	}
	var fired int
	for seed := 0; seed < seeds; seed++ {
		rng := randx.New(uint64(seed) + 0x50a1)
		cfg := difftest.GenConfig{States: 10 + seed%8}
		a := difftest.Generate(rng.Fork(), cfg)
		input := difftest.GenInput(rng.Fork(), cfg, 4096*2+seed%1000)
		plan := partition.ForWorkers(a, jN)

		spec := fmt.Sprintf("%s:%s:%d", kinds[seed%3], sites[(seed/3)%2], 1+seed%4)
		c1, _, err := governedRun(plan, input, 1, spec, uint64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cN, _, err := governedRun(plan, input, jN, spec, uint64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c1.Kind == "other" || cN.Kind == "other" {
			t.Fatalf("seed %d spec %q: fault did not surface as a structured error: j1=%+v jN=%+v",
				seed, spec, c1, cN)
		}
		if c1 != cN {
			t.Fatalf("seed %d spec %q: fault class differs across workers: j1=%+v j%d=%+v",
				seed, spec, c1, jN, cN)
		}
		if c1.Kind != "ok" {
			fired++
		}

		// Un-faulted control: identical results and report streams at any -j.
		var rep1, repN []sim.Report
		res1, err := plan.Run(context.Background(), [][]byte{input}, partition.RunOptions{
			Workers: 1, OnReport: func(r sim.Report) { rep1 = append(rep1, r) },
		})
		if err != nil {
			t.Fatalf("seed %d control j1: %v", seed, err)
		}
		resN, err := plan.Run(context.Background(), [][]byte{input}, partition.RunOptions{
			Workers: jN, OnReport: func(r sim.Report) { repN = append(repN, r) },
		})
		if err != nil {
			t.Fatalf("seed %d control j%d: %v", seed, jN, err)
		}
		if res1 != resN {
			t.Fatalf("seed %d: control results differ: j1=%+v j%d=%+v", seed, res1, jN, resN)
		}
		if len(rep1) != len(repN) {
			t.Fatalf("seed %d: control report counts differ: %d vs %d", seed, len(rep1), len(repN))
		}
		for i := range rep1 {
			if rep1[i] != repN[i] {
				t.Fatalf("seed %d: control report %d differs: %+v vs %+v", seed, i, rep1[i], repN[i])
			}
		}
	}
	// The soak is only meaningful if faults actually fire: with hit counts
	// 1..4 over ≥6 governed passes, the rules reach their trigger in the
	// overwhelming majority of seeds.
	if fired < seeds/2 {
		t.Fatalf("only %d/%d seeds fired their fault — soak is undercovered", fired, seeds)
	}
}
