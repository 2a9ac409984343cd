package dfa

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/sim"
)

// refEngine is the engine's construction layer as it was before the flat
// arrays: per-byte signature strings for the byte classes, a map-based
// subset construction, frontiers interned under string keys, and a fallback
// step that allocates a map per byte. It keeps the stepping, budgets and
// degradation of Engine without hooks, so the two can be compared byte by
// byte (TestEngineMatchesReference). It is the oracle only; nothing here
// is tuned.
type refEngine struct {
	a          *automata.Automaton
	opts       Options
	sets       []charset.Set
	comps      []*refComponent
	cur        []uint32
	compOf     []int32
	live       []int32
	offset     int64
	stats      Stats
	cacheBytes int64
	fired      []int32 // report codes emitted since the caller last cleared it
}

type refComponent struct {
	states    []automata.StateID
	allStarts []automata.StateID
	sodStarts []automata.StateID

	byteClass [256]uint16
	classRep  []byte
	nClasses  int

	dstates  []refDstate
	index    map[string]uint32
	overflow bool
	budget   int
	bytes    int64

	freeBytes  bool
	winLookups int32
	winMisses  int32

	frontier []automata.StateID
	next     []automata.StateID
	mark     map[automata.StateID]bool
}

type refDstate struct {
	frontier []automata.StateID
	trans    []uint32
	reports  [][]int32
}

func newRef(a *automata.Automaton, opts Options) *refEngine {
	_, compIdx := a.Components()
	nComp := 0
	for _, c := range compIdx {
		if int(c)+1 > nComp {
			nComp = int(c) + 1
		}
	}
	e := &refEngine{a: a, opts: opts, sets: a.Table().Sets(), comps: make([]*refComponent, nComp), compOf: compIdx}
	for i := range e.comps {
		e.comps[i] = &refComponent{index: map[string]uint32{}}
	}
	for s := 0; s < a.NumStates(); s++ {
		c := e.comps[compIdx[s]]
		c.states = append(c.states, automata.StateID(s))
	}
	for _, c := range e.comps {
		e.prepare(c)
	}
	e.cur = make([]uint32, nComp)
	e.Reset()
	if opts.ForceNFAFallback {
		for _, c := range e.comps {
			e.degrade(c, nil)
		}
	}
	return e
}

func (e *refEngine) degrade(c *refComponent, seed []automata.StateID) {
	c.overflow = true
	e.stats.Fallbacks++
	e.stats.CacheEvictions += int64(len(c.dstates))
	c.frontier = append(c.frontier[:0], seed...)
	if c.mark == nil {
		c.mark = map[automata.StateID]bool{}
	}
	e.cacheBytes -= c.bytes
	c.bytes = 0
	c.dstates = nil
	c.index = nil
	c.freeBytes = false
}

func (e *refEngine) prepare(c *refComponent) {
	for _, s := range c.states {
		switch e.a.Start(s) {
		case automata.StartAllInput:
			c.allStarts = append(c.allStarts, s)
		case automata.StartOfData:
			c.sodStarts = append(c.sodStarts, s)
		}
	}
	handles := map[charset.Handle]struct{}{}
	for _, s := range c.states {
		handles[e.a.ClassHandle(s)] = struct{}{}
	}
	distinct := make([]charset.Set, 0, len(handles))
	for h := range handles {
		distinct = append(distinct, e.sets[h])
	}
	sigIndex := map[string]uint16{}
	sig := make([]byte, (len(distinct)+7)/8)
	for b := 0; b < 256; b++ {
		for i := range sig {
			sig[i] = 0
		}
		for i, cs := range distinct {
			if cs.Contains(byte(b)) {
				sig[i/8] |= 1 << (i % 8)
			}
		}
		key := string(sig)
		cls, ok := sigIndex[key]
		if !ok {
			cls = uint16(len(sigIndex))
			sigIndex[key] = cls
			c.classRep = append(c.classRep, byte(b))
		}
		c.byteClass[b] = cls
	}
	c.nClasses = len(sigIndex)
	factor := e.opts.BudgetFactor
	if factor <= 0 {
		factor = 16
	}
	c.budget = factor*len(c.states) + 64
	c.dstates = append(c.dstates, e.newDstate(c, nil))
	c.index[""] = 0
	init := append([]automata.StateID(nil), c.sodStarts...)
	sort.Slice(init, func(i, j int) bool { return init[i] < init[j] })
	c.dstates = append(c.dstates, e.newDstate(c, init))
	c.index[frontierKey(init)] = 1
	cost := dstateCost(0, c.nClasses) + dstateCost(len(init), c.nClasses)
	c.bytes += cost
	e.cacheBytes += cost
}

func (e *refEngine) newDstate(c *refComponent, frontier []automata.StateID) refDstate {
	d := refDstate{
		frontier: frontier,
		trans:    make([]uint32, c.nClasses),
		reports:  make([][]int32, c.nClasses),
	}
	for i := range d.trans {
		d.trans[i] = transUnset
	}
	return d
}

func frontierKey(f []automata.StateID) string {
	buf := make([]byte, 0, len(f)*4)
	for _, s := range f {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(buf)
}

func (e *refEngine) computeTransition(c *refComponent, di uint32, cls uint16) {
	d := &c.dstates[di]
	rep := c.classRep[cls]
	var reports []int32
	var nextFront []automata.StateID
	seen := map[automata.StateID]bool{}
	consider := func(s automata.StateID) {
		if !e.sets[e.a.ClassHandle(s)].Contains(rep) {
			return
		}
		if e.a.IsReport(s) {
			reports = append(reports, e.a.ReportCode(s))
		}
		for _, t := range e.a.Succ(s) {
			if !seen[t] {
				seen[t] = true
				nextFront = append(nextFront, t)
			}
		}
	}
	for _, s := range d.frontier {
		consider(s)
	}
	for _, s := range c.allStarts {
		if !containsSorted(d.frontier, s) {
			consider(s)
		}
	}
	sort.Slice(nextFront, func(i, j int) bool { return nextFront[i] < nextFront[j] })
	key := frontierKey(nextFront)
	ni, ok := c.index[key]
	if !ok {
		if len(c.dstates) >= c.budget {
			c.overflow = true
			e.stats.Fallbacks++
			e.stats.CacheEvictions += int64(len(c.dstates))
			return
		}
		cost := dstateCost(len(nextFront), c.nClasses)
		if e.opts.MaxCacheBytes > 0 && e.cacheBytes+cost > e.opts.MaxCacheBytes {
			c.overflow = true
			c.freeBytes = true
			e.stats.Fallbacks++
			e.stats.CacheEvictions += int64(len(c.dstates))
			return
		}
		ni = uint32(len(c.dstates))
		c.dstates = append(c.dstates, e.newDstate(c, nextFront))
		c.index[key] = ni
		c.bytes += cost
		e.cacheBytes += cost
	}
	d = &c.dstates[di]
	d.trans[cls] = ni
	d.reports[cls] = reports
}

func containsSorted(xs []automata.StateID, v automata.StateID) bool {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
	return i < len(xs) && xs[i] == v
}

func (e *refEngine) Reset() {
	e.live = e.live[:0]
	for i, c := range e.comps {
		e.cur[i] = 1
		c.frontier = c.frontier[:0]
		if c.overflow && c.mark == nil {
			c.mark = map[automata.StateID]bool{}
		}
		e.live = append(e.live, int32(i))
	}
	e.offset = 0
	e.stats.Reports = 0
	e.stats.Symbols = 0
}

func (e *refEngine) CacheStats() Stats {
	s := e.stats
	s.DFAStates = 0
	for _, c := range e.comps {
		s.DFAStates += len(c.dstates)
	}
	s.CacheBytes = e.cacheBytes
	return s
}

func (e *refEngine) emit(code int32) {
	e.stats.Reports++
	e.fired = append(e.fired, code)
}

func (e *refEngine) stepByte(b byte) {
	e.stats.Symbols++
	for i := 0; i < len(e.live); {
		ci := e.live[i]
		c := e.comps[ci]
		if c.overflow {
			e.nfaStep(c, b)
			i++
			continue
		}
		di := e.cur[ci]
		cls := c.byteClass[b]
		if c.dstates[di].trans[cls] == transUnset {
			e.stats.CacheMisses++
			c.winMisses++
			e.computeTransition(c, di, cls)
			if c.overflow {
				c.frontier = append(c.frontier[:0], c.dstates[di].frontier...)
				if c.mark == nil {
					c.mark = map[automata.StateID]bool{}
				}
				if c.freeBytes {
					e.cacheBytes -= c.bytes
					c.bytes = 0
					c.dstates = nil
					c.index = nil
					c.freeBytes = false
				}
				e.nfaStep(c, b)
				i++
				continue
			}
		} else {
			e.stats.CacheHits++
		}
		c.winLookups++
		if e.opts.ThrashMissRate > 0 && c.winLookups >= thrashWindow {
			if float64(c.winMisses) > e.opts.ThrashMissRate*float64(c.winLookups) {
				e.degrade(c, c.dstates[di].frontier)
				e.nfaStep(c, b)
				i++
				continue
			}
			c.winLookups, c.winMisses = 0, 0
		}
		d := &c.dstates[di]
		for _, code := range d.reports[cls] {
			e.emit(code)
		}
		next := d.trans[cls]
		e.cur[ci] = next
		if next == 0 && len(c.allStarts) == 0 {
			e.live[i] = e.live[len(e.live)-1]
			e.live = e.live[:len(e.live)-1]
			continue
		}
		i++
	}
	e.offset++
}

func (e *refEngine) nfaStep(c *refComponent, b byte) {
	e.stats.FallbackBytes++
	c.next = c.next[:0]
	clear(c.mark)
	consider := func(s automata.StateID) {
		if !e.sets[e.a.ClassHandle(s)].Contains(b) {
			return
		}
		if e.a.IsReport(s) {
			e.emit(e.a.ReportCode(s))
		}
		for _, t := range e.a.Succ(s) {
			if !c.mark[t] {
				c.mark[t] = true
				c.next = append(c.next, t)
			}
		}
	}
	inFrontier := map[automata.StateID]bool{}
	for _, s := range c.frontier {
		inFrontier[s] = true
		consider(s)
	}
	if e.offset == 0 {
		for _, s := range c.sodStarts {
			if !inFrontier[s] {
				consider(s)
			}
		}
	}
	for _, s := range c.allStarts {
		if !inFrontier[s] {
			consider(s)
		}
	}
	c.frontier, c.next = c.next, c.frontier
}

func (e *refEngine) RestoreState(s *sim.StreamState) {
	per := make([][]automata.StateID, len(e.comps))
	for _, id := range s.Frontier {
		per[e.compOf[id]] = append(per[e.compOf[id]], id)
	}
	e.Reset()
	e.live = e.live[:0]
	for i, c := range e.comps {
		f := per[i]
		slices.Sort(f)
		if c.overflow {
			c.frontier = append(c.frontier[:0], f...)
			e.live = append(e.live, int32(i))
			continue
		}
		key := frontierKey(f)
		di, ok := c.index[key]
		if !ok {
			if len(c.dstates) >= c.budget {
				c.overflow = true
				e.stats.Fallbacks++
				e.stats.CacheEvictions += int64(len(c.dstates))
				c.frontier = append(c.frontier[:0], f...)
				if c.mark == nil {
					c.mark = map[automata.StateID]bool{}
				}
				e.live = append(e.live, int32(i))
				continue
			}
			cost := dstateCost(len(f), c.nClasses)
			if e.opts.MaxCacheBytes > 0 && e.cacheBytes+cost > e.opts.MaxCacheBytes {
				e.degrade(c, f)
				e.live = append(e.live, int32(i))
				continue
			}
			di = uint32(len(c.dstates))
			c.dstates = append(c.dstates, e.newDstate(c, f))
			c.index[key] = di
			c.bytes += cost
			e.cacheBytes += cost
		}
		e.cur[i] = di
		if di == 0 && len(c.allStarts) == 0 {
			continue
		}
		e.live = append(e.live, int32(i))
	}
	e.offset = s.Offset
}

// refConfigs are the engine configurations the reference comparison runs:
// the production defaults, a state budget small enough to overflow, and the
// three degradations the difftest matrix runs (forced, starved, thrash).
var refConfigs = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"budget", Options{BudgetFactor: 1}},
	{"forced", Options{ForceNFAFallback: true}},
	{"starved", Options{MaxCacheBytes: 1}},
	{"tight-bytes", Options{MaxCacheBytes: 4096}},
	{"thrash", Options{ThrashMissRate: 0.0001}},
}

// compareWithRef scans input on a fresh engine and a fresh reference with
// the same options, comparing after every byte the reports fired, each
// component's mode, current dstate and fallback frontier, every frontier
// interned so far (in order) and the cache statistics. Halfway it restores
// both from the engine's snapshot, and at the end it compares the
// transition and report tables.
func compareWithRef(t testing.TB, a *automata.Automaton, opts Options, input []byte) {
	t.Helper()
	e, err := NewWithOptions(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(a, opts)
	compareEngines(t, e, ref, input)
}

// compareEngines is compareWithRef on engines already built.
func compareEngines(t testing.TB, e *Engine, ref *refEngine, input []byte) {
	t.Helper()
	var fired []int32
	e.OnReport = func(r sim.Report) { fired = append(fired, r.Code) }
	for i, c := range e.comps {
		rc := ref.comps[i]
		if c.byteClass != rc.byteClass || !slices.Equal(c.classRep, rc.classRep) || c.nClasses != rc.nClasses {
			t.Fatalf("component %d: byte classes differ", i)
		}
	}
	checked := make([]int, len(e.comps))
	for at, b := range input {
		if at == len(input)/2 {
			snap := e.CaptureState()
			if err := e.RestoreState(snap); err != nil {
				t.Fatal(err)
			}
			ref.RestoreState(snap)
			checked = checkState(t, e, ref, checked, at, "restore")
		}
		fired, ref.fired = fired[:0], ref.fired[:0]
		e.Step(b)
		ref.stepByte(b)
		if !slices.Equal(fired, ref.fired) {
			t.Fatalf("byte %d: reports %v, reference %v", at, fired, ref.fired)
		}
		checked = checkState(t, e, ref, checked, at, "step")
	}
	for i, c := range e.comps {
		rc := ref.comps[i]
		for d := range rc.dstates {
			for cls := 0; cls < c.nClasses; cls++ {
				tr := d*c.nClasses + cls
				if c.trans[tr] != rc.dstates[d].trans[cls] {
					t.Fatalf("component %d dstate %d class %d: trans %d, reference %d", i, d, cls, c.trans[tr], rc.dstates[d].trans[cls])
				}
				r := c.reps[tr]
				if got := c.repArena[r.off : r.off+r.n]; !slices.Equal(got, rc.dstates[d].reports[cls]) {
					t.Fatalf("component %d dstate %d class %d: reports %v, reference %v", i, d, cls, got, rc.dstates[d].reports[cls])
				}
			}
		}
	}
}

// checkState compares e and ref after byte at; checked[i] counts the
// frontiers of component i already compared.
func checkState(t testing.TB, e *Engine, ref *refEngine, checked []int, at int, when string) []int {
	t.Helper()
	if !slices.Equal(e.live, ref.live) || e.offset != ref.offset {
		t.Fatalf("%s %d: live %v at %d, reference %v at %d", when, at, e.live, e.offset, ref.live, ref.offset)
	}
	for i, c := range e.comps {
		rc := ref.comps[i]
		if c.overflow != rc.overflow || e.cur[i] != ref.cur[i] {
			t.Fatalf("%s %d component %d: overflow %v dstate %d, reference %v %d", when, at, i, c.overflow, e.cur[i], rc.overflow, ref.cur[i])
		}
		if c.overflow && !slices.Equal(c.frontier, rc.frontier) {
			t.Fatalf("%s %d component %d: fallback frontier %v, reference %v", when, at, i, c.frontier, rc.frontier)
		}
		if c.numDstates() != len(rc.dstates) {
			t.Fatalf("%s %d component %d: %d dstates, reference %d", when, at, i, c.numDstates(), len(rc.dstates))
		}
		if c.numDstates() < checked[i] {
			checked[i] = 0 // released and rebuilt
		}
		for d := checked[i]; d < c.numDstates(); d++ {
			if !slices.Equal(c.frontierOf(uint32(d)), rc.dstates[d].frontier) {
				t.Fatalf("%s %d component %d dstate %d: frontier %v, reference %v", when, at, i, d, c.frontierOf(uint32(d)), rc.dstates[d].frontier)
			}
		}
		checked[i] = c.numDstates()
	}
	got, want := e.CacheStats(), ref.CacheStats()
	got.ConstructNanos = 0
	if got != want {
		t.Fatalf("%s %d: stats %+v, reference %+v", when, at, got, want)
	}
	return checked
}

// randomAutomaton draws a small counter-free automaton over 'a'..'e' with
// start-of-data and all-input starts, reporting starts, self-loops, and
// (being sparse) components with no start-of-data state or no start at all.
func randomAutomaton(rng *rand.Rand) *automata.Automaton {
	b := automata.NewBuilder()
	n := 1 + rng.Intn(24)
	for i := 0; i < n; i++ {
		var cs charset.Set
		for c := byte('a'); c <= 'e'; c++ {
			if rng.Intn(3) == 0 {
				cs.Add(c)
			}
		}
		if rng.Intn(8) == 0 {
			cs = cs.Negate()
		}
		start := automata.StartNone
		switch rng.Intn(6) {
		case 0:
			start = automata.StartAllInput
		case 1:
			start = automata.StartOfData
		}
		id := b.AddSTE(cs, start)
		if rng.Intn(4) == 0 {
			b.SetReport(id, int32(rng.Intn(5)))
		}
	}
	for i := 0; i < n; i++ {
		for k := rng.Intn(3); k > 0; k-- {
			b.AddEdge(automata.StateID(i), automata.StateID(rng.Intn(n)))
		}
		if rng.Intn(5) == 0 {
			b.AddEdge(automata.StateID(i), automata.StateID(i))
		}
	}
	return b.MustBuild()
}

func randomInput(rng *rand.Rand, n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = "abcdeabcdeabcdex"[rng.Intn(16)]
	}
	return in
}

// dfaCacheKernels are the kernels of the benchmark's dfa_cache workload.
var dfaCacheKernels = []string{"Snort", "YARA Wide", "Brill", "CRISPR CasOffinder",
	"File Carving", "Hamming 18x3", "ClamAV", "Hamming 22x5"}

// TestEngineMatchesReference holds the flat construction layer to the
// map-based reference byte by byte, on random automata and on the
// dfa_cache kernels at tiny scale, in every configuration.
func TestEngineMatchesReference(t *testing.T) {
	for _, cfg := range refConfigs {
		for seed := int64(1); seed <= 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := randomAutomaton(rng)
			t.Run(fmt.Sprintf("%s/random-%d", cfg.name, seed), func(t *testing.T) {
				compareWithRef(t, a, cfg.opts, randomInput(rng, 1500))
			})
		}
	}
	for _, name := range dfaCacheKernels {
		a, input := kernel(t, name, 0.005, 2048)
		for _, cfg := range refConfigs {
			t.Run(cfg.name+"/"+name, func(t *testing.T) {
				compareWithRef(t, a, cfg.opts, input)
			})
		}
	}
}

// FuzzEngineMatchesReference is TestEngineMatchesReference on fuzzed
// automata, inputs and configurations.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte("abcabcxdeadbeef"))
	f.Add(int64(7), uint8(2), []byte("eeeeaaaabbbbx"))
	f.Add(int64(42), uint8(5), []byte("abcde"))
	f.Fuzz(func(t *testing.T, seed int64, cfg uint8, input []byte) {
		a := randomAutomaton(rand.New(rand.NewSource(seed)))
		compareWithRef(t, a, refConfigs[int(cfg)%len(refConfigs)].opts, input)
	})
}
