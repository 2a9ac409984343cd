package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/hooks"
	"automatazoo/internal/telemetry"
)

// refEngine is the engine's step as it was before the bitset frontier and
// the dense counter slices: the seed bodies of Step, activate, enable and
// fireCounters, over one generation-marked frontier list and three
// counter maps, without hooks. It is the oracle only
// (TestEngineMatchesReference); nothing here is tuned.
type refEngine struct {
	sets []charset.Set
	css  []charset.Handle
	succ [][]automata.StateID

	isCounter []bool
	isReport  []bool
	code      []int32

	startIdx    [256][]automata.StateID
	startOfData []automata.StateID

	frontier []automata.StateID
	next     []automata.StateID
	mark     []uint32
	amark    []uint32
	gen      uint32

	counterVal map[automata.StateID]uint32
	counterCfg map[automata.StateID]automata.Counter
	pulsed     []automata.StateID
	pulseMark  []bool
	latched    map[automata.StateID]bool

	offset    int64
	stats     Stats
	reports   []Report           // every report since the caller last cleared it
	activated []automata.StateID // every activation, likewise
}

func newRef(a *automata.Automaton) *refEngine {
	n := a.NumStates()
	e := &refEngine{
		sets:       a.Table().Sets(),
		css:        make([]charset.Handle, n),
		succ:       make([][]automata.StateID, n),
		isCounter:  make([]bool, n),
		isReport:   make([]bool, n),
		code:       make([]int32, n),
		mark:       make([]uint32, n),
		amark:      make([]uint32, n),
		gen:        2,
		counterVal: map[automata.StateID]uint32{},
		counterCfg: map[automata.StateID]automata.Counter{},
		pulseMark:  make([]bool, n),
		latched:    map[automata.StateID]bool{},
	}
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		e.css[id] = a.ClassHandle(id)
		e.succ[id] = a.Succ(id)
		e.isReport[id] = a.IsReport(id)
		e.code[id] = a.ReportCode(id)
		if a.Kind(id) == automata.KindCounter {
			e.isCounter[id] = true
			e.counterCfg[id], _ = a.CounterConfig(id)
		}
	}
	for _, s := range a.Starts() {
		switch a.Start(s) {
		case automata.StartAllInput:
			for c := 0; c < 256; c++ {
				if e.sets[e.css[s]].Contains(byte(c)) {
					e.startIdx[c] = append(e.startIdx[c], s)
				}
			}
		case automata.StartOfData:
			e.startOfData = append(e.startOfData, s)
		}
	}
	return e
}

func (e *refEngine) emit(id automata.StateID) {
	e.stats.Reports++
	e.reports = append(e.reports, Report{Offset: e.offset, State: id, Code: e.code[id]})
}

func (e *refEngine) enable(id automata.StateID) {
	if e.mark[id] != e.gen {
		e.mark[id] = e.gen
		e.next = append(e.next, id)
	}
}

func (e *refEngine) activate(id automata.StateID) {
	if e.amark[id] == e.gen {
		return
	}
	e.amark[id] = e.gen
	e.stats.Active++
	e.activated = append(e.activated, id)
	if e.isReport[id] {
		e.emit(id)
	}
	for _, t := range e.succ[id] {
		if e.isCounter[t] {
			if !e.pulseMark[t] {
				e.pulseMark[t] = true
				e.pulsed = append(e.pulsed, t)
				e.stats.CounterPulses++
			}
		} else {
			e.enable(t)
		}
	}
}

func (e *refEngine) fireCounters() {
	if len(e.pulsed) == 0 {
		return
	}
	queue := e.pulsed
	slices.Sort(queue)
	for i := 0; i < len(queue); i++ {
		id := queue[i]
		if e.latched[id] {
			continue
		}
		cfg := e.counterCfg[id]
		v := e.counterVal[id] + 1
		if v < cfg.Target {
			e.counterVal[id] = v
			continue
		}
		if e.isReport[id] {
			e.emit(id)
		}
		for _, t := range e.succ[id] {
			if e.isCounter[t] {
				if !e.pulseMark[t] {
					e.pulseMark[t] = true
					e.stats.CounterPulses++
					queue = append(queue, t)
				}
			} else {
				e.enable(t)
			}
		}
		if cfg.Mode == automata.CountRollover {
			e.counterVal[id] = 0
		} else {
			e.latched[id] = true
			e.counterVal[id] = cfg.Target
		}
	}
	for _, id := range queue {
		e.pulseMark[id] = false
	}
	e.pulsed = queue[:0]
}

func (e *refEngine) Step(b byte) {
	e.stats.Symbols++
	if e.offset == 0 {
		for _, s := range e.startOfData {
			e.stats.Enabled++
			if e.sets[e.css[s]].Contains(b) {
				e.activate(s)
			}
		}
	}
	for _, s := range e.startIdx[b] {
		e.activate(s)
	}
	e.stats.Enabled += int64(len(e.frontier))
	for _, s := range e.frontier {
		if e.sets[e.css[s]].Contains(b) {
			e.activate(s)
		}
	}
	e.fireCounters()
	e.frontier, e.next = e.next, e.frontier[:0]
	e.gen++
	if e.gen < 2 {
		for i := range e.mark {
			e.mark[i] = 0
			e.amark[i] = 0
		}
		e.gen = 2
		for _, s := range e.frontier {
			e.mark[s] = e.gen - 1
		}
	}
	e.offset++
}

func (e *refEngine) EnableState(id automata.StateID) {
	prev := e.gen - 1
	if e.mark[id] == prev {
		return
	}
	e.mark[id] = prev
	e.frontier = append(e.frontier, id)
}

func (e *refEngine) CaptureState() *StreamState {
	f := append([]automata.StateID(nil), e.frontier...)
	slices.Sort(f)
	s := &StreamState{Offset: e.offset, Frontier: f}
	for id, v := range e.counterVal {
		s.Counters = append(s.Counters, CounterSnapshot{ID: id, Value: v, Latched: e.latched[id]})
	}
	slices.SortFunc(s.Counters, func(a, b CounterSnapshot) int { return int(a.ID) - int(b.ID) })
	return s
}

// RestoreState is the seed's Reset followed by its re-seeding.
func (e *refEngine) RestoreState(s *StreamState) {
	e.frontier, e.next = e.frontier[:0], e.next[:0]
	e.gen++
	if e.gen < 2 {
		clear(e.mark)
		clear(e.amark)
		e.gen = 2
	}
	clear(e.counterVal)
	clear(e.latched)
	e.stats = Stats{}
	for _, id := range s.Frontier {
		e.EnableState(id)
	}
	for _, c := range s.Counters {
		e.counterVal[c.ID] = c.Value
		if c.Latched {
			e.latched[c.ID] = true
		}
	}
	e.offset = s.Offset
}

// refMode pins the engine's frontier representation through its switch
// thresholds. A pinned bitset engine also enters the bitset before its
// first symbol, so the bitset step sees offset 0 and its start-of-data
// row.
type refMode struct {
	name             string
	enterAt, leaveAt float64
	pin              bool
}

var refModes = []refMode{
	{"auto", bitsetEnter, bitsetLeave, false},
	{"list", math.Inf(1), 0, false},
	{"bitset", 0, 0, true},
	{"flip", 0, math.Inf(1), false}, // switches at every block boundary
}

func (m refMode) apply(e *Engine) {
	e.enterAt, e.leaveAt = m.enterAt, m.leaveAt
	if m.pin && !e.dense {
		e.enterBits()
	}
}

// CompareWithReference scans input on a fresh engine and on refEngine in
// every refMode and compares, after every byte, the statistics, the
// frontier snapshot, the captured state and the multisets of the offset's
// reports and activations. Between bytes both engines get the same
// EnableState calls (drawn from seed), on states on and off the
// frontier, and halfway both restore the engine's own snapshot. Each mode
// runs twice: bare, and with a tracer, a frontier histogram and an attribution
// ledger attached and the engines started a few hundred generations short
// of uint32 wrap; the hooks' totals are checked at the end.
func CompareWithReference(t testing.TB, a *automata.Automaton, input []byte, seed int64) {
	t.Helper()
	for _, m := range refModes {
		for _, hooked := range []bool{false, true} {
			name := m.name
			if hooked {
				name += "/hooked-wrap"
			}
			if err := compareMode(a, input, seed, m, hooked); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// offsetTracer records the activations of the current offset.
type offsetTracer struct{ activated []automata.StateID }

func (r *offsetTracer) OnSymbol(int64, byte)                              {}
func (r *offsetTracer) OnActivate(_ int64, s uint32)                      { r.activated = append(r.activated, s) }
func (r *offsetTracer) OnReport(int64, uint32, int32)                     {}
func (r *offsetTracer) OnCacheEvent(int64, int, telemetry.CacheEventKind) {}

func compareMode(a *automata.Automaton, input []byte, seed int64, m refMode, hooked bool) error {
	e, ref := New(a), newRef(a)
	var got []Report
	e.OnReport = func(r Report) { got = append(got, r) }
	tr := &offsetTracer{}
	reg, wantReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	hist := reg.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	wantHist := wantReg.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	coll := attr.NewCollector(a, attr.FromComponents(a, "c"))
	wantWork := make([]int64, len(coll.Totals().Work))
	led := coll.Ledger(coll.GlobalCompOf())
	if hooked {
		e.Attach(hooks.Set{Tracer: tr, Frontier: hist, Ledger: led})
		e.gen = math.MaxUint32 - 300
		ref.gen = e.gen
	}
	m.apply(e)
	var stes []automata.StateID
	for id := range a.NumStates() {
		if a.Kind(automata.StateID(id)) == automata.KindSTE {
			stes = append(stes, automata.StateID(id))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i, b := range input {
		if i == len(input)/2 {
			snap := e.CaptureState()
			if err := e.RestoreState(snap); err != nil {
				return err
			}
			ref.RestoreState(snap)
			m.apply(e)
		}
		if len(stes) > 0 && rng.Intn(8) == 0 {
			id := stes[rng.Intn(len(stes))]
			if f := e.FrontierSnapshot(); len(f) > 0 && rng.Intn(2) == 0 {
				id = f[rng.Intn(len(f))]
			}
			e.EnableState(id)
			ref.EnableState(id)
		}
		got, ref.reports = got[:0], ref.reports[:0]
		tr.activated, ref.activated = tr.activated[:0], ref.activated[:0]
		wantHist.Observe(int64(len(ref.frontier)))
		e.Step(b)
		ref.Step(b)
		if e.Stats() != ref.stats {
			return fmt.Errorf("byte %d (dense %v): stats %+v, reference %+v", i, e.dense, e.Stats(), ref.stats)
		}
		byStateCode := func(x, y Report) int {
			if x.State != y.State {
				return int(x.State) - int(y.State)
			}
			return int(x.Code - y.Code)
		}
		slices.SortFunc(got, byStateCode)
		slices.SortFunc(ref.reports, byStateCode)
		if !slices.Equal(got, ref.reports) {
			return fmt.Errorf("byte %d (dense %v): reports %v, reference %v", i, e.dense, got, ref.reports)
		}
		if g, w := e.CaptureState(), ref.CaptureState(); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("byte %d (dense %v): state %+v, reference %+v", i, e.dense, g, w)
		}
		if g, w := e.FrontierLen(), len(ref.frontier); g != w {
			return fmt.Errorf("byte %d (dense %v): frontier length %d, reference %d", i, e.dense, g, w)
		}
		for _, s := range ref.activated {
			wantWork[coll.GlobalCompOf()[s]]++
		}
		if hooked {
			slices.Sort(tr.activated)
			slices.Sort(ref.activated)
			if !slices.Equal(tr.activated, ref.activated) {
				return fmt.Errorf("byte %d (dense %v): activations %v, reference %v", i, e.dense, tr.activated, ref.activated)
			}
		}
	}
	if !hooked {
		return nil
	}
	e.FlushLedger()
	led.Commit()
	snap, want := reg.Snapshot(), wantReg.Snapshot()
	if g, w := snap.Histograms["sim.frontier"], want.Histograms["sim.frontier"]; !reflect.DeepEqual(g, w) {
		return fmt.Errorf("sim.frontier histogram %+v, reference %+v", g, w)
	}
	if g := coll.Totals().Work; !slices.Equal(g, wantWork) {
		return fmt.Errorf("ledger work %v, reference %v", g, wantWork)
	}
	return nil
}

// RandomAutomaton draws an automaton of up to 200 states (so several
// frontier words) over 'a'..'e': start-of-data and all-input starts,
// reporting states, self-loops, dense fan-out so the bitset engages, and
// in one automaton of four, latching and rollover counters, each pulsed
// by two states, chained into each other and back into states.
func RandomAutomaton(rng *rand.Rand) *automata.Automaton {
	b := automata.NewBuilder()
	n := 1 + rng.Intn(200)
	for i := 0; i < n; i++ {
		var cs charset.Set
		for c := byte('a'); c <= 'e'; c++ {
			if rng.Intn(3) > 0 {
				cs.Add(c)
			}
		}
		if rng.Intn(8) == 0 {
			cs = cs.Negate()
		}
		start := automata.StartNone
		switch rng.Intn(8) {
		case 0:
			start = automata.StartAllInput
		case 1:
			start = automata.StartOfData
		}
		id := b.AddSTE(cs, start)
		if rng.Intn(6) == 0 {
			b.SetReport(id, int32(rng.Intn(5)))
		}
	}
	for i := 0; i < n; i++ {
		for k := rng.Intn(4); k > 0; k-- {
			b.AddEdge(automata.StateID(i), automata.StateID(rng.Intn(n)))
		}
		if rng.Intn(5) == 0 {
			b.AddEdge(automata.StateID(i), automata.StateID(i))
		}
	}
	if rng.Intn(4) == 0 {
		mode := []automata.CounterMode{automata.CountRollover, automata.CountLatch}
		var ctrs []automata.StateID
		for k := 1 + rng.Intn(3); k > 0; k-- {
			c := b.AddCounter(uint32(1+rng.Intn(4)), mode[rng.Intn(2)])
			b.AddEdge(automata.StateID(rng.Intn(n)), c)
			b.AddEdge(automata.StateID(rng.Intn(n)), c) // same-cycle pulses coalesce
			b.AddEdge(c, automata.StateID(rng.Intn(n)))
			if rng.Intn(2) == 0 {
				b.SetReport(c, int32(rng.Intn(5)))
			}
			ctrs = append(ctrs, c)
		}
		b.AddEdge(ctrs[0], ctrs[len(ctrs)-1])
	}
	return b.MustBuild()
}

// RandomInput draws n bytes over RandomAutomaton's alphabet and 'x'.
func RandomInput(rng *rand.Rand, n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = "abcdeabcdeabcdex"[rng.Intn(16)]
	}
	return in
}

// FuzzEngineMatchesReference is TestEngineMatchesReference on fuzzed
// random automata, inputs and EnableState draws.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte("abcabcxdeadbeef"))
	f.Add(int64(7), []byte("eeeeaaaabbbbxeeeeaaaabbbbxeeeeaaaabbbbxeeeeaaaabbbbxeeeeaaaabbbbxeeeeaaaabbbbx"))
	f.Add(int64(42), []byte("abcde"))
	f.Fuzz(func(t *testing.T, seed int64, input []byte) {
		CompareWithReference(t, RandomAutomaton(rand.New(rand.NewSource(seed))), input, seed)
	})
}
