package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/telemetry"
)

// TestNilTelemetryZeroAllocs is the benchmark guard for the disabled
// telemetry path: with no hook attached, Run must not allocate at all
// once the engine is warm.
func TestNilTelemetryZeroAllocs(t *testing.T) {
	a := literalAutomaton("abc", 1)
	e := New(a)
	e.Attach(hooks.Set{}) // explicit: the disabled hook path is part of the guard
	input := []byte("xxabcxxabcabcxaxbxcabxcabc")
	// Warm: establish frontier slice capacities.
	e.Reset()
	e.Run(input)
	allocs := testing.AllocsPerRun(200, func() {
		e.Reset()
		e.Run(input)
	})
	if allocs != 0 {
		t.Fatalf("nil-telemetry Run allocated %.1f times per run, want 0", allocs)
	}
}

func TestStateProfileCounts(t *testing.T) {
	a := literalAutomaton("ab", 7)
	e := New(a)
	prof := telemetry.NewStateProfile(a.NumStates())
	e.Attach(hooks.Set{Tracer: prof})
	e.Run([]byte("abab"))
	// State 0 ('a', all-input start) matches at offsets 0 and 2; state 1
	// ('b') is enabled after each 'a' and matches at offsets 1 and 3.
	if got := prof.Activations[0]; got != 2 {
		t.Errorf("state 0 activations = %d, want 2", got)
	}
	if got := prof.Activations[1]; got != 2 {
		t.Errorf("state 1 activations = %d, want 2", got)
	}
	if total := prof.TotalActivations(); total != 4 {
		t.Errorf("total activations = %d, want 4", total)
	}
	top := prof.TopK(10, nil)
	if len(top) != 2 {
		t.Fatalf("TopK entries = %d, want 2", len(top))
	}
	if top[0].Share+top[1].Share < 0.999 {
		t.Errorf("shares should sum to 1: %v", top)
	}
	// The profile accumulates across the engine's Reset.
	e.Reset()
	e.Run([]byte("ab"))
	if got := prof.Activations[0]; got != 3 {
		t.Errorf("accumulated activations = %d, want 3", got)
	}
}

// recordingTracer counts events per kind.
type recordingTracer struct {
	symbols, activates, reports, cache int
	lastReportState                    uint32
	lastReportCode                     int32
}

func (r *recordingTracer) OnSymbol(offset int64, b byte)     { r.symbols++ }
func (r *recordingTracer) OnActivate(offset int64, s uint32) { r.activates++ }
func (r *recordingTracer) OnReport(offset int64, s uint32, c int32) {
	r.reports++
	r.lastReportState = s
	r.lastReportCode = c
}
func (r *recordingTracer) OnCacheEvent(offset int64, comp int, k telemetry.CacheEventKind) {
	r.cache++
}

func TestTracerEventStream(t *testing.T) {
	a := literalAutomaton("ab", 9)
	e := New(a)
	tr := &recordingTracer{}
	e.Attach(hooks.Set{Tracer: tr})
	st := e.Run([]byte("abxab"))
	if tr.symbols != 5 {
		t.Errorf("symbol events = %d, want 5", tr.symbols)
	}
	if int64(tr.activates) != st.Active {
		t.Errorf("activate events = %d, want %d", tr.activates, st.Active)
	}
	if int64(tr.reports) != st.Reports || tr.reports != 2 {
		t.Errorf("report events = %d, want 2", tr.reports)
	}
	if tr.lastReportCode != 9 {
		t.Errorf("last report code = %d, want 9", tr.lastReportCode)
	}
	// Detaching stops the stream.
	e.Attach(hooks.Set{})
	e.Reset()
	e.Run([]byte("ab"))
	if tr.symbols != 5 {
		t.Errorf("detached tracer still receiving events")
	}
}

// TestStatsZeroInput is the divide-by-zero hardening audit: every rate
// accessor must return 0, not NaN, on an empty run.
func TestStatsZeroInput(t *testing.T) {
	cases := []struct {
		name string
		fn   func(Stats) float64
	}{
		{"ActiveAvg", Stats.ActiveAvg},
		{"EnabledAvg", Stats.EnabledAvg},
		{"ReportRate", Stats.ReportRate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.fn(Stats{}); got != 0 {
				t.Errorf("%s on zero Stats = %v, want 0", tc.name, got)
			}
		})
	}
	// And on a live engine that consumed nothing.
	e := New(literalAutomaton("x", 0))
	st := e.Run(nil)
	if st.ActiveAvg() != 0 || st.EnabledAvg() != 0 || st.ReportRate() != 0 {
		t.Errorf("empty run rates = %v %v %v, want all 0",
			st.ActiveAvg(), st.EnabledAvg(), st.ReportRate())
	}
}

// ringAutomaton is n all-class states in a ring, each enabling the next
// and the one three on, from one all-input start: hundreds of states stay
// enabled, so the engine steps it on the bitset.
func ringAutomaton(n int) *automata.Automaton {
	b := automata.NewBuilder()
	for i := 0; i < n; i++ {
		st := automata.StartNone
		if i == 0 {
			st = automata.StartAllInput
		}
		b.AddSTE(charset.All(), st)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(automata.StateID(i), automata.StateID((i+1)%n))
		b.AddEdge(automata.StateID(i), automata.StateID((i+3)%n))
	}
	b.SetReport(automata.StateID(n-1), 1)
	return b.MustBuild()
}

// TestFrontierBatchMatchesPerSymbol holds the batched Frontier histogram
// to one observed per symbol: a bare twin engine takes the same steps,
// and FrontierLen is observed before each of its Steps. The engine under
// test runs pieces of the stream through Step and through a governed
// RunChecked (which flushes per chunk); between pieces both engines get
// the same EnableState, Reset and RestoreState calls, and the engine is
// flushed or re-attached to a fresh histogram, after which the old one
// must be complete. Streams cover the list (a literal on mostly idle
// input, whose idle symbols are never observed one by one), the bitset (a
// busy ring), random automata, and every pinned mode, flips included.
func TestFrontierBatchMatchesPerSymbol(t *testing.T) {
	type stream struct {
		name  string
		a     *automata.Automaton
		input []byte
	}
	idle := make([]byte, 3*hooks.Chunk)
	for i := range idle {
		idle[i] = 'x'
		if i%97 < 3 {
			idle[i] = "abc"[i%97]
		}
	}
	streams := []stream{
		{"literal-idle", literalAutomaton("abc", 1), idle},
		{"ring", ringAutomaton(200), make([]byte, 2*hooks.Chunk)},
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		streams = append(streams, stream{fmt.Sprintf("random-%d", seed), RandomAutomaton(rng), RandomInput(rng, 3000)})
	}
	newHist := func() (*telemetry.Registry, *telemetry.Histogram) {
		reg := telemetry.NewRegistry()
		return reg, reg.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	}
	for _, s := range streams {
		for mi, m := range refModes {
			t.Run(s.name+"/"+m.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(s.input) + mi)))
				e, twin := New(s.a), New(s.a)
				m.apply(e)
				m.apply(twin)
				gov := guard.New(context.Background(), guard.Budget{})
				reg, hist := newHist()
				wantReg, want := newHist()
				e.Attach(hooks.Set{Frontier: hist, Governor: gov})
				idle := 0
				check := func(where string) {
					t.Helper()
					g, w := reg.Snapshot().Histograms["sim.frontier"], wantReg.Snapshot().Histograms["sim.frontier"]
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: batched %+v, per symbol %+v", where, g, w)
					}
				}
				for off := 0; off < 3*len(s.input); {
					n := 1 + rng.Intn(300)
					if rng.Intn(3) == 0 {
						n = 1 + rng.Intn(2*hooks.Chunk)
					}
					end := min(3*len(s.input), off+n)
					piece := s.input[off%len(s.input) : off%len(s.input)+min(end-off, len(s.input)-off%len(s.input))]
					end = off + len(piece)
					for _, b := range piece {
						n := twin.FrontierLen()
						want.Observe(int64(n))
						if n == 0 && len(twin.startIdx[b]) == 0 && twin.offset != 0 {
							idle++
						}
						twin.Step(b)
					}
					if rng.Intn(2) == 0 {
						if _, err := e.RunChecked(piece); err != nil {
							t.Fatal(err)
						}
					} else {
						for _, b := range piece {
							e.Step(b)
						}
					}
					off = end
					switch rng.Intn(5) {
					case 0:
						e.Flush()
						check(fmt.Sprintf("flush at %d", off))
					case 1:
						e.Reset()
						twin.Reset()
						check(fmt.Sprintf("reset at %d", off))
						m.apply(e)
						m.apply(twin)
					case 2:
						snap := e.CaptureState()
						if err := e.RestoreState(snap); err != nil {
							t.Fatal(err)
						}
						if err := twin.RestoreState(snap); err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("restore at %d", off))
						m.apply(e)
						m.apply(twin)
					case 3:
						oldReg, oldWant := reg, wantReg
						reg, hist = newHist()
						wantReg, want = newHist()
						e.Attach(hooks.Set{Frontier: hist, Governor: gov})
						g, w := oldReg.Snapshot().Histograms["sim.frontier"], oldWant.Snapshot().Histograms["sim.frontier"]
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("replaced at %d: batched %+v, per symbol %+v", off, g, w)
						}
					case 4:
						id := automata.StateID(rng.Intn(s.a.NumStates()))
						if s.a.Kind(id) == automata.KindSTE {
							e.EnableState(id)
							twin.EnableState(id)
						}
					}
				}
				e.Flush()
				check("end")
				if s.name == "literal-idle" && idle == 0 {
					t.Fatal("vacuous: no symbol of the idle stream took the idle shortcut")
				}
			})
		}
	}
}

// chunkProbe is a Checkpointer that records, at every chunk boundary, how
// many symbols the Frontier histogram holds.
type chunkProbe struct {
	h      *telemetry.Histogram
	counts []int64
}

func (p *chunkProbe) Boundary(int64) error {
	p.counts = append(p.counts, p.h.Count())
	return nil
}

// TestFrontierFlushedPerChunk: under RunChecked the batched frontier sizes
// reach the histogram at every chunk boundary, before the Checkpointer is
// offered the chunk, so a live view (the debug server's /metrics) lags the
// scan by less than a chunk.
func TestFrontierFlushedPerChunk(t *testing.T) {
	h := telemetry.NewRegistry().Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	probe := &chunkProbe{h: h}
	e := New(literalAutomaton("abc", 1))
	e.Attach(hooks.Set{Frontier: h, Checkpointer: probe})
	input := make([]byte, 3*hooks.Chunk+100)
	if _, err := e.RunChecked(input); err != nil {
		t.Fatal(err)
	}
	want := []int64{hooks.Chunk, 2 * hooks.Chunk, 3 * hooks.Chunk, 3*hooks.Chunk + 100}
	if !reflect.DeepEqual(probe.counts, want) {
		t.Fatalf("histogram counts at the chunk boundaries %v, want %v", probe.counts, want)
	}
}
