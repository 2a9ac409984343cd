package difftest

import (
	"reflect"
	"strings"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/randx"
	"automatazoo/internal/scan"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
)

func TestDiffStreamsLocalization(t *testing.T) {
	ev := func(off int64, code int32) Event { return Event{Offset: off, Code: code} }
	cases := []struct {
		name     string
		ref, got []Event
		want     *Divergence // nil = agree; else check Offset/Missing/Unexpected
	}{
		{"both empty", nil, nil, nil},
		{"agree", []Event{ev(1, 2), ev(5, 1)}, []Event{ev(1, 2), ev(5, 1)}, nil},
		{
			"candidate drops one",
			[]Event{ev(1, 2), ev(5, 1)}, []Event{ev(1, 2)},
			&Divergence{Offset: 5, Missing: []Event{ev(5, 1)}},
		},
		{
			"candidate invents one",
			[]Event{ev(1, 2)}, []Event{ev(1, 2), ev(9, 3)},
			&Divergence{Offset: 9, Unexpected: []Event{ev(9, 3)}},
		},
		{
			"multiset count differs at one offset",
			[]Event{ev(4, 7), ev(4, 7)}, []Event{ev(4, 7)},
			&Divergence{Offset: 4, Missing: []Event{ev(4, 7)}},
		},
		{
			"wrong code same offset",
			[]Event{ev(3, 1)}, []Event{ev(3, 2)},
			&Divergence{Offset: 3, Missing: []Event{ev(3, 1)}, Unexpected: []Event{ev(3, 2)}},
		},
		{
			// The delta is restricted to the first diverging offset: the
			// reference's {2,1} is missing there, and the candidate's stray
			// {5,1} is a later story.
			"divergence localized to earliest offset",
			[]Event{ev(2, 1), ev(8, 1)}, []Event{ev(5, 1), ev(8, 1)},
			&Divergence{Offset: 2, Missing: []Event{ev(2, 1)}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := diffStreams("test", tc.ref, tc.got)
			if tc.want == nil {
				if d != nil {
					t.Fatalf("unexpected divergence: %v", d)
				}
				return
			}
			if d == nil {
				t.Fatal("expected a divergence, got agreement")
			}
			if d.Offset != tc.want.Offset {
				t.Errorf("offset=%d want %d", d.Offset, tc.want.Offset)
			}
			if !reflect.DeepEqual(d.Missing, tc.want.Missing) {
				t.Errorf("missing=%v want %v", d.Missing, tc.want.Missing)
			}
			if !reflect.DeepEqual(d.Unexpected, tc.want.Unexpected) {
				t.Errorf("unexpected=%v want %v", d.Unexpected, tc.want.Unexpected)
			}
		})
	}
}

// agree fails t on the first divergence in vs.
func agree(t *testing.T, vs []verdict) {
	t.Helper()
	for _, v := range vs {
		if v.div != nil {
			t.Fatal(v.div.String())
		}
	}
}

// events is the reference cell's canonical report stream for a on input.
func events(t *testing.T, a *automata.Automaton, input []byte) []Event {
	t.Helper()
	o, err := reference.run(a, input, 1, scan.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	return canon(o.events)
}

// Same seed must yield byte-identical behavior: the whole oracle design
// rests on divergences being reproducible from their seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		a1 := Generate(randx.New(seed), GenConfig{Counters: 2})
		a2 := Generate(randx.New(seed), GenConfig{Counters: 2})
		if a1.NumStates() != a2.NumStates() || a1.NumEdges() != a2.NumEdges() {
			t.Fatalf("seed %d: shapes differ (%d/%d states, %d/%d edges)",
				seed, a1.NumStates(), a2.NumStates(), a1.NumEdges(), a2.NumEdges())
		}
		input := GenInput(randx.New(seed^0xff), GenConfig{}, 256)
		if !reflect.DeepEqual(events(t, a1, input), events(t, a2, input)) {
			t.Fatalf("seed %d: same seed, different report streams", seed)
		}
	}
}

// The in-tree soak: small enough for plain `go test`, wide enough to catch
// a reintroduced engine bug. It also asserts the matrix is not vacuous:
// every cell ran and compared reports, every segmented cell of a
// speculating engine both committed and replayed, every degradation cell
// fell back, dfa-tight degraded after offset 0 (a warm frontier crossed
// into the fallback), and every engine's crash-resume cell was killed.
func TestSoakSmall(t *testing.T) {
	res := Soak(SoakConfig{Seeds: 40, InputLen: 2048, Seed: 1})
	for _, d := range res.Divergences {
		t.Errorf("divergence: seed %d %s", d.Seed, d.String())
	}
	want := []string{"bitnfa"}
	var late int64
	for _, e := range append(engines[:3:3], engines[4]) {
		name := e.name + "/crash-resume"
		want = append(want, name)
		if res.Cells[name].Crashes == 0 {
			t.Errorf("%s never crashed", name)
		}
		if e.cacheBudget > 0 && res.Cells[name].Fallbacks == 0 {
			t.Errorf("%s never fell back", name)
		}
	}
	for _, c := range matrix() {
		name, st := c.String(), res.Cells[c.String()]
		want = append(want, name)
		speculates := c.name == "nfa" || c.name == "prefilter" // dfa never does
		if c.segmented && speculates && (st.Committed == 0 || st.Replayed == 0) {
			t.Errorf("%s: %d commits, %d replays; want both", name, st.Committed, st.Replayed)
		}
		if c.cacheBudget > 0 && st.Fallbacks == 0 {
			t.Errorf("%s never fell back", name)
		}
		if c.name == "dfa-tight" {
			late += st.Late
		}
	}
	if late == 0 {
		t.Error("dfa-tight never degraded after offset 0")
	}
	for _, name := range want {
		if st := res.Cells[name]; st.Runs == 0 || st.Reports == 0 {
			t.Errorf("%s: %d runs compared %d reports; the cell is vacuous", name, st.Runs, st.Reports)
		}
	}
	if len(res.Cells) != len(want) {
		t.Errorf("soak recorded %d cells, want %d", len(res.Cells), len(want))
	}
}

// dropOne is a broken engine: a sim engine that swallows its first report.
type dropOne struct {
	segment.Engine
	dropped *Event
}

func (e *dropOne) SetOnReport(fn func(sim.Report)) {
	if fn == nil {
		e.Engine.SetOnReport(nil)
		return
	}
	e.Engine.SetOnReport(func(r sim.Report) {
		if e.dropped == nil {
			e.dropped = &Event{Offset: r.Offset, Code: r.Code}
			return
		}
		fn(r)
	})
}

// The runner must catch a broken engine and say where: a cell whose engine
// drops one report is flagged, named, and localized to that report's
// offset.
func TestOracleDetectsInjectedFault(t *testing.T) {
	a := Generate(randx.New(3), GenConfig{})
	input := GenInput(randx.New(4), GenConfig{}, 256)
	nfa, err := scan.Factory("nfa")
	if err != nil {
		t.Fatal(err)
	}
	broken := &dropOne{}
	bad := cell{workers: 1, engine: engine{name: "drop-one", new: func(a *automata.Automaton) (segment.Engine, error) {
		e, err := nfa(a)
		broken.Engine = e
		return broken, err
	}}}
	vs := check(a, input, 1, []cell{reference, bad})
	if len(vs) != 2 || vs[0].div != nil || vs[0].stat.Reports == 0 {
		t.Fatalf("reference verdict %+v of %d", vs[0], len(vs))
	}
	d := vs[1].div
	if d == nil || broken.dropped == nil {
		t.Fatal("the runner missed a dropped report")
	}
	if d.Cell != bad.String() || d.Offset != broken.dropped.Offset ||
		!reflect.DeepEqual(d.Missing, []Event{*broken.dropped}) || len(d.Unexpected) != 0 {
		t.Fatalf("divergence %s, want cell %s missing %v", d, bad, *broken.dropped)
	}
}

// Minimized reproducer for the fireCounters map-iteration bug, expressed
// through the oracle: two chained counters pulsed in the same cycle made
// sim's own report stream vary run-to-run, so sim disagreed with its
// prefix-merged twin intermittently. Pinned here as repeated exact-stream
// equality plus the whole matrix (its merge cells included).
func chainedCounterAutomaton() *automata.Automaton {
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c1 := b.AddCounter(1, automata.CountRollover)
	c2 := b.AddCounter(2, automata.CountRollover)
	b.SetReport(c2, 9)
	b.AddEdge(s, c1)
	b.AddEdge(s, c2)
	b.AddEdge(c1, c2)
	return b.MustBuild()
}

func TestReproChainedCounterDeterminism(t *testing.T) {
	a := chainedCounterAutomaton()
	input := []byte("xxxx")
	want := events(t, a, input)
	if len(want) == 0 {
		t.Fatal("reproducer automaton reports nothing — test is vacuous")
	}
	cells := matrix()
	for trial := 0; trial < 100; trial++ {
		if got := events(t, a, input); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: report stream varies run-to-run: %v vs %v", trial, got, want)
		}
		agree(t, check(a, input, 2, cells))
	}
}

// Minimized reproducer for chained fires bypassing the target comparison:
// c1 fires every symbol and chains into c2 (target 2, never pulsed
// directly). Under the raw counterVal++ bug c2 never fired, which the
// matrix can't see (every cell was wrong identically) — but the absolute
// stream it pins here could not exist under the old code.
func TestReproChainedCounterTarget(t *testing.T) {
	b := automata.NewBuilder()
	s := b.AddSTE(charset.Single('x'), automata.StartAllInput)
	c1 := b.AddCounter(1, automata.CountRollover)
	c2 := b.AddCounter(2, automata.CountRollover)
	b.SetReport(c2, 9)
	b.AddEdge(s, c1)
	b.AddEdge(c1, c2)
	a := b.MustBuild()
	want := []Event{{Offset: 1, Code: 9}, {Offset: 3, Code: 9}}
	if got := events(t, a, []byte("xxxx")); !reflect.DeepEqual(got, want) {
		t.Fatalf("chained-target stream = %v, want %v", got, want)
	}
	agree(t, check(a, []byte("xxxx"), 2, matrix()))
}

// The bit-level witness machinery must produce real matches: an oracle that
// only ever compares empty report streams proves nothing.
func TestBitWitnessesProduceReports(t *testing.T) {
	rng := randx.New(7)
	ba, witnesses := GenerateBit(rng)
	if len(witnesses) != 3 {
		t.Fatalf("witnesses=%d want 3", len(witnesses))
	}
	v := checkBit(ba, GenBitInput(rng, witnesses, 128))
	if v.div != nil {
		t.Fatal(v.div.String())
	}
	if v.stat.Reports == 0 {
		t.Fatal("witness-spliced input produced zero reports")
	}
}

// Counter-free generation must stay counter-free — the dfa cells depend
// on it: every cell of the matrix applies, and agrees.
func TestGenerateCounterFree(t *testing.T) {
	cells := matrix()
	for seed := uint64(100); seed < 120; seed++ {
		a := Generate(randx.New(seed), GenConfig{})
		if a.NumCounters() != 0 {
			t.Fatalf("seed %d: counter-free config produced %d counters", seed, a.NumCounters())
		}
		vs := check(a, GenInput(randx.New(seed), GenConfig{}, 128), 3, cells)
		if len(vs) != len(cells) {
			t.Fatalf("seed %d: %d of %d cells applied", seed, len(vs), len(cells))
		}
		agree(t, vs)
	}
}

// A cell whose engine rejects the automaton by type is not applicable:
// on a counter automaton the dfa cells drop out, every other cell runs.
func TestDFACellsSkipCounters(t *testing.T) {
	vs := check(chainedCounterAutomaton(), []byte("xxxx"), 2, matrix())
	for _, v := range vs {
		if strings.HasPrefix(v.cell, "dfa") {
			t.Errorf("%s ran on a counter automaton", v.cell)
		}
	}
	if want := 2 * len(matrix()) / len(engines); len(vs) != want {
		t.Errorf("%d cells ran, want the %d nfa and prefilter cells", len(vs), want)
	}
	agree(t, vs)
}

// The graceful-degradation contract: a dfa engine degraded to the
// fallback — starved by a one-byte cache budget, or by a budget that runs
// out mid-stream — falls back in every one of its cells and still agrees
// with the reference.
func TestSimVsDFADegradationModes(t *testing.T) {
	for _, tc := range [][2]string{{"byte-starved", "dfa-starved"}, {"tight-budget", "dfa-tight"}} {
		name, eng := tc[0], tc[1]
		t.Run(name, func(t *testing.T) {
			cells := []cell{reference}
			for _, c := range matrix() {
				if c.name == eng {
					cells = append(cells, c)
				}
			}
			fallbacks := map[string]int64{}
			for i := 0; i < 25; i++ {
				rng := randx.New(uint64(7000 + i))
				cfg := GenConfig{States: 14}
				a := Generate(rng.Fork(), cfg)
				for _, v := range check(a, GenInput(rng.Fork(), cfg, 2048), 2+i%3, cells) {
					if v.div != nil {
						t.Fatalf("seed %d: %s", 7000+i, v.div)
					}
					fallbacks[v.cell] += v.stat.Fallbacks
				}
			}
			for _, c := range cells[1:] {
				if fallbacks[c.String()] == 0 {
					t.Errorf("%s never fell back", c)
				}
			}
		})
	}
}

// A soak covers the starved dfa, whose one-byte cache budget forces every
// component into the fallback, in every one of its cells with real
// reports: each falls back, and none diverges from the reference.
func TestSoakForcedFallback(t *testing.T) {
	res := Soak(SoakConfig{Seeds: 30, InputLen: 512, Seed: 11})
	for _, d := range res.Divergences {
		t.Errorf("divergence: seed %d %s", d.Seed, d.String())
	}
	var forced int
	for _, c := range matrix() {
		if c.name != "dfa-starved" {
			continue
		}
		forced++
		st := res.Cells[c.String()]
		if st.Runs == 0 || st.Reports == 0 || st.Fallbacks == 0 {
			t.Errorf("%s: starved soak vacuous: %+v", c, st)
		}
	}
	if forced == 0 {
		t.Fatal("the matrix has no dfa-starved cell")
	}
}
