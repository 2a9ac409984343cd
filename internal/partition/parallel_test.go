package partition

import (
	"context"
	"runtime"
	"sort"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/spm"
	"automatazoo/internal/telemetry"
)

// kernels returns three structurally different benchmark automata with
// their inputs: a Hamming mesh, a Levenshtein mesh (high fan-out), and a
// counter-bearing Sequence Matching kernel.
func kernels(t *testing.T) []struct {
	name  string
	a     *automata.Automaton
	input []byte
} {
	t.Helper()
	rng := randx.New(41)
	ham, err := mesh.Benchmark(mesh.Hamming, 20, 10, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	lev, err := mesh.Benchmark(mesh.Levenshtein, 12, 9, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	b := automata.NewBuilder()
	var pats []spm.Pattern
	prng := randx.New(5)
	for i := 0; i < 12; i++ {
		p := spm.RandomPattern(prng, 4)
		pats = append(pats, p)
		if err := spm.Build(b, p, spm.Config{WithCounter: true, SupportThreshold: 2}, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq := b.MustBuild()
	dna := mesh.RandomDNA(rng, 30_000)
	return []struct {
		name  string
		a     *automata.Automaton
		input []byte
	}{
		{"hamming", ham, dna},
		{"levenshtein", lev, dna},
		{"spm-counters", seq, spm.Input(pats, 4_000, 5, 17, 29)},
	}
}

// canonical is the multi-pass reference Run is held to: every slice
// extracted and scanned on a fresh NFA engine, one after another. It
// returns the summed Result and the report stream stably sorted by
// offset — the order RunParallel promises for every workers value.
func canonical(t *testing.T, p *Plan, input []byte) ([]sim.Report, Result) {
	t.Helper()
	res := Result{Passes: p.Passes()}
	var seq []sim.Report
	for i := range p.Slices {
		sub, err := p.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.New(sub)
		e.OnReport = func(r sim.Report) { seq = append(seq, r) }
		res.add(e.Run(input))
	}
	sort.SliceStable(seq, func(x, y int) bool { return seq[x].Offset < seq[y].Offset })
	return seq, res
}

func TestRunParallelDeterministicAcrossWorkers(t *testing.T) {
	for _, k := range kernels(t) {
		k := k
		t.Run(k.name, func(t *testing.T) {
			p, err := Partition(k.a, k.a.NumStates()/5+1)
			if err != nil {
				t.Fatal(err)
			}
			if p.Passes() < 3 {
				t.Fatalf("want a multi-slice plan, got %d passes", p.Passes())
			}
			want, seqRes := canonical(t, p, k.input)
			if len(want) == 0 {
				t.Fatal("kernel produced no reports; test is vacuous")
			}
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				var got []sim.Report
				res, err := p.RunParallel(context.Background(), workers, k.input,
					func(r sim.Report) { got = append(got, r) })
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res != seqRes {
					t.Fatalf("workers=%d: Result %+v != sequential %+v", workers, res, seqRes)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: report %d = %+v, want %+v (stream must be byte-identical)",
							workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRunNilOnReport is the regression test for the nil-guard: a nil
// callback must run all passes and still count reports, mirroring the
// engines' nil-guarded telemetry hooks.
func TestRunNilOnReport(t *testing.T) {
	k := kernels(t)[0]
	p, err := Partition(k.a, k.a.NumStates()/4+1)
	if err != nil {
		t.Fatal(err)
	}
	withCB, err := p.RunParallel(context.Background(), 1, k.input, func(sim.Report) {})
	if err != nil {
		t.Fatal(err)
	}
	if withCB.Reports == 0 {
		t.Fatal("kernel produced no reports; test is vacuous")
	}
	for _, workers := range []int{1, 2} {
		nilCB, err := p.RunParallel(context.Background(), workers, k.input, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nilCB != withCB {
			t.Fatalf("workers=%d: nil onReport changed the result: %+v vs %+v", workers, nilCB, withCB)
		}
	}
}

func TestRunParallelContextCancel(t *testing.T) {
	k := kernels(t)[0]
	p, err := Partition(k.a, k.a.NumStates()/4+1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	delivered := 0
	_, err = p.RunParallel(ctx, 2, k.input, func(sim.Report) { delivered++ })
	if err == nil {
		t.Fatal("cancelled context must surface an error")
	}
	if delivered != 0 {
		t.Fatalf("no reports may be delivered on error, got %d", delivered)
	}
}

func TestForWorkersNeverFails(t *testing.T) {
	k := kernels(t)[1]
	sizes, _ := k.a.Components()
	for _, w := range []int{0, 1, 2, 7, 1000} {
		p := ForWorkers(k.a, w)
		if p.Passes() < 1 || p.Passes() > len(sizes) {
			t.Fatalf("workers=%d: %d slices for %d components", w, p.Passes(), len(sizes))
		}
		total := 0
		for _, s := range p.Slices {
			total += s.States
		}
		if total != k.a.NumStates() {
			t.Fatalf("workers=%d: placed %d of %d states", w, total, k.a.NumStates())
		}
	}
	// One giant component: capacity clamps to the component size.
	one := ForWorkers(k.a, 1)
	if one.Passes() != 1 {
		t.Fatalf("workers=1 should yield one slice, got %d", one.Passes())
	}
}

// TestRunParallelSharedRegistryRace exercises one registry shared by every
// slice engine across workers (run under -race via `make ci`): final
// counter sums must be worker-count-independent.
func TestRunParallelSharedRegistryRace(t *testing.T) {
	k := kernels(t)[0]
	p, err := Partition(k.a, k.a.NumStates()/5+1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int64{}
	for _, workers := range []int{1, runtime.NumCPU()} {
		reg := telemetry.NewRegistry()
		if _, err := p.Run(context.Background(), [][]byte{k.input}, RunOptions{Workers: workers, Hooks: segment.Hooks{Registry: reg}}); err != nil {
			t.Fatal(err)
		}
		counts[workers] = reg.Counter("sim.symbols").Value()
		if got := reg.Counter("sim.symbols").Value(); got != int64(p.Passes()*len(k.input)) {
			t.Fatalf("workers=%d: sim.symbols=%d, want passes×len=%d",
				workers, got, p.Passes()*len(k.input))
		}
	}
	if counts[1] != counts[runtime.NumCPU()] {
		t.Fatalf("registry totals differ across worker counts: %v", counts)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
