package dfa

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/sim"
)

// refEngine is the engine's construction layer as it was before the flat
// arrays: per-byte signature strings for the byte classes, a map-based
// subset construction, frontiers interned under string keys, and a
// per-component fallback step that allocates a map per byte. It keeps the
// stepping, budgets and degradation of Engine without hooks, so the two
// can be compared byte by byte (TestEngineMatchesReference), under the
// same refConfig. It is the oracle only; nothing here is tuned.
type refEngine struct {
	a           *automata.Automaton
	cacheBudget int64 // refConfig.cacheBudget
	govBytes    int64 // the bytes reserved with the governor it models
	sets        []charset.Set
	comps       []*refComponent
	cur         []uint32
	compOf      []int32
	live        []int32
	degraded    []int32
	offset      int64
	stats       Stats
	cacheBytes  int64
	fired       []int32 // report codes emitted since the caller last cleared it
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
	held     int64

	freeBytes bool

	frontier []automata.StateID
	next     []automata.StateID
	mark     map[automata.StateID]bool
}

type refDstate struct {
	frontier []automata.StateID
	trans    []uint32
	reports  [][]int32
}

func newRef(a *automata.Automaton, cfg refConfig) *refEngine {
	_, compIdx := a.Components()
	nComp := 0
	for _, c := range compIdx {
		if int(c)+1 > nComp {
			nComp = int(c) + 1
		}
	}
	e := &refEngine{a: a, cacheBudget: cfg.cacheBudget, sets: a.Table().Sets(), comps: make([]*refComponent, nComp), compOf: compIdx}
	for i := range e.comps {
		e.comps[i] = &refComponent{index: map[string]uint32{}}
	}
	for s := 0; s < a.NumStates(); s++ {
		c := e.comps[compIdx[s]]
		c.states = append(c.states, automata.StateID(s))
	}
	for _, c := range e.comps {
		e.prepare(c)
		if cfg.stateBudget != nil {
			c.budget = cfg.stateBudget(len(c.states))
		}
	}
	e.cur = make([]uint32, nComp)
	e.Reset()
	// The governor's attach-time reservation of the initial dstates.
	if e.cacheBudget > 0 && e.cacheBytes <= e.cacheBudget {
		e.govBytes = e.cacheBytes
		for _, c := range e.comps {
			c.held = c.bytes
		}
	}
	return e
}

// admit reserves cost bytes of a new dstate of c, or marks c overflowed
// (freeBytes when the governor refused) and counts its degradation.
func (e *refEngine) admit(c *refComponent, cost int64) bool {
	refuse := len(c.dstates) >= c.budget
	if !refuse && e.cacheBudget > 0 {
		if refuse = e.govBytes+cost > e.cacheBudget; refuse {
			c.freeBytes = true
		} else {
			e.govBytes += cost
			c.held += cost
		}
	}
	if refuse {
		c.overflow = true
		e.stats.Fallbacks++
		e.stats.CacheEvictions += int64(len(c.dstates))
	}
	return !refuse
}

// degrade moves component ci to the fallback with frontier seed, releasing
// its dstates after a governor refusal.
func (e *refEngine) degrade(c *refComponent, ci int32, seed []automata.StateID) {
	e.degraded = append(e.degraded, ci)
	c.frontier = append(c.frontier[:0], seed...)
	if c.mark == nil {
		c.mark = map[automata.StateID]bool{}
	}
	if c.freeBytes {
		e.cacheBytes -= c.bytes
		e.govBytes -= c.held
		c.bytes, c.held = 0, 0
		c.dstates = nil
		c.index = nil
		c.freeBytes = false
	}
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
	c.budget = 16*len(c.states) + 64
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
		cost := dstateCost(len(nextFront), c.nClasses)
		if !e.admit(c, cost) {
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
		if !c.overflow {
			e.live = append(e.live, int32(i))
		}
	}
	e.offset = 0
	e.stats.Reports = 0
	e.stats.Symbols = 0
}

// frontierSnapshot is the sorted union of the components' frontiers: the
// current dstate's, or the fallback frontier of a degraded component.
func (e *refEngine) frontierSnapshot() []automata.StateID {
	var f []automata.StateID
	for i, c := range e.comps {
		if c.overflow {
			f = append(f, c.frontier...)
		} else {
			f = append(f, c.dstates[e.cur[i]].frontier...)
		}
	}
	slices.Sort(f)
	return f
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
		di := e.cur[ci]
		cls := c.byteClass[b]
		if c.dstates[di].trans[cls] == transUnset {
			e.stats.CacheMisses++
			e.computeTransition(c, di, cls)
			if c.overflow {
				e.degrade(c, ci, c.dstates[di].frontier)
				e.live = slices.Delete(e.live, i, i+1)
				continue
			}
		} else {
			e.stats.CacheHits++
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
	for _, ci := range e.degraded {
		e.nfaStep(e.comps[ci], b)
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
	for _, ci := range e.degraded {
		c := e.comps[ci]
		c.frontier = append(c.frontier[:0], per[ci]...)
	}
	cached := e.live
	e.live = nil
	for _, ci := range cached {
		c, f := e.comps[ci], per[ci]
		slices.Sort(f)
		key := frontierKey(f)
		di, ok := c.index[key]
		if !ok {
			if !e.admit(c, dstateCost(len(f), c.nClasses)) {
				e.degrade(c, ci, f)
				continue
			}
			di = uint32(len(c.dstates))
			c.dstates = append(c.dstates, e.newDstate(c, f))
			c.index[key] = di
			cost := dstateCost(len(f), c.nClasses)
			c.bytes += cost
			e.cacheBytes += cost
		}
		e.cur[ci] = di
		if di == 0 && len(c.allStarts) == 0 {
			continue
		}
		e.live = append(e.live, ci)
	}
	e.offset = s.Offset
}

// refConfig is one way to run the engine and the reference: under a
// governor with a DFA cache budget (cacheBudget > 0), and with the
// components' state budget overridden in the test (stateBudget, given a
// component's state count).
type refConfig struct {
	name        string
	cacheBudget int64
	stateBudget func(states int) int
}

// refConfigs are the configurations the reference comparison runs: the
// production defaults; a state budget of one dstate per state (plus 64)
// that overflows mid-stream, keeping the dstates; a state budget of zero
// that degrades every component at its first construction; a one-byte
// governor budget that does the same, releasing the dstates; and governor
// budgets that run out mid-stream (tight-bytes) and later, once the cache
// has warmed (thrash). A state budget that overflows on its own is
// budgetAutomaton's.
var refConfigs = []refConfig{
	{name: "default"},
	{name: "budget", stateBudget: func(n int) int { return n + 64 }},
	{name: "forced", stateBudget: func(int) int { return 0 }},
	{name: "starved", cacheBudget: 1},
	{name: "tight-bytes", cacheBudget: 4096},
	{name: "thrash", cacheBudget: 16384},
}

// newGoverned returns New(a) configured as cfg says.
func newGoverned(t testing.TB, a *automata.Automaton, cfg refConfig) *Engine {
	t.Helper()
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.stateBudget != nil {
		for _, c := range e.comps {
			c.budget = cfg.stateBudget(len(c.states))
		}
	}
	if cfg.cacheBudget > 0 {
		e.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{MaxCacheBytes: cfg.cacheBudget})})
	}
	return e
}

// budgetAutomaton is (a|b)*a(a|b){k}: k+1 states whose DFA has 2^(k+1)
// dstates on a/b input, so from k = 9 on it overflows the state budget of
// 16 per state plus 64 on its own. budgetInput is such input.
func budgetAutomaton(t *testing.T, k int) *automata.Automaton {
	t.Helper()
	return compile(t, fmt.Sprintf("a[ab]{%d}", k))
}

func budgetInput(rng *rand.Rand, n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = "ab"[rng.Intn(2)]
	}
	return in
}

// compareWithRef scans input on a fresh engine and a fresh reference
// configured as cfg says, comparing after every byte the
// reports fired (as multisets: the cached components report before the
// fallback), each component's mode, current dstate and fallback frontier
// (the fallback's projected through compOf), every frontier interned so far
// (in order) and the cache statistics. Halfway it restores both from the
// engine's snapshot, and at the end it compares the transition and report
// tables.
func compareWithRef(t testing.TB, a *automata.Automaton, cfg refConfig, input []byte) {
	t.Helper()
	compareEngines(t, newGoverned(t, a, cfg), newRef(a, cfg), input)
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
		slices.Sort(fired)
		slices.Sort(ref.fired)
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
	var live []int32 // active and idle, in step order like ref.live
	e.eachLive(func(ci int) { live = append(live, int32(ci)) })
	if !slices.Equal(live, ref.live) || !slices.Equal(e.degraded, ref.degraded) || e.offset != ref.offset {
		t.Fatalf("%s %d: live %v degraded %v at %d, reference %v %v at %d", when, at, live, e.degraded, e.offset, ref.live, ref.degraded, ref.offset)
	}
	fallback := make([][]automata.StateID, len(e.comps))
	if e.fb != nil {
		for _, s := range e.fb.FrontierSnapshot() {
			fallback[e.compOf[s]] = append(fallback[e.compOf[s]], s)
		}
	}
	for i, c := range e.comps {
		rc := ref.comps[i]
		if c.overflow != rc.overflow || c.cur != ref.cur[i] {
			t.Fatalf("%s %d component %d: overflow %v dstate %d, reference %v %d", when, at, i, c.overflow, c.cur, rc.overflow, ref.cur[i])
		}
		var want []automata.StateID
		if c.overflow {
			want = slices.Clone(rc.frontier)
			slices.Sort(want)
		}
		if !slices.Equal(fallback[i], want) {
			t.Fatalf("%s %d component %d: fallback frontier %v, reference %v", when, at, i, fallback[i], want)
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
	if got, want := e.FrontierSnapshot(), ref.frontierSnapshot(); !slices.Equal(got, want) {
		t.Fatalf("%s %d: frontier snapshot %v, reference %v", when, at, got, want)
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
// dfa_cache kernels at tiny scale, in every configuration, and the state
// budget on budgetAutomaton with the production defaults.
func TestEngineMatchesReference(t *testing.T) {
	for _, cfg := range refConfigs {
		for seed := int64(1); seed <= 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := randomAutomaton(rng)
			t.Run(fmt.Sprintf("%s/random-%d", cfg.name, seed), func(t *testing.T) {
				compareWithRef(t, a, cfg, randomInput(rng, 1500))
			})
		}
	}
	for _, name := range dfaCacheKernels {
		a, input := kernel(t, name, 0.005, 2048)
		for _, cfg := range refConfigs {
			t.Run(cfg.name+"/"+name, func(t *testing.T) {
				compareWithRef(t, a, cfg, input)
			})
		}
	}
	for k := 9; k <= 11; k++ {
		t.Run(fmt.Sprintf("budget/k%d", k), func(t *testing.T) {
			a := budgetAutomaton(t, k)
			input := budgetInput(rand.New(rand.NewSource(int64(k))), 3000)
			compareWithRef(t, a, refConfigs[0], input)
			if e := newGoverned(t, a, refConfigs[0]); e.Run(input).Fallbacks != 1 {
				t.Fatalf("a(a|b){%d} did not overflow the state budget", k)
			}
		})
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
		compareWithRef(t, a, refConfigs[int(cfg)%len(refConfigs)], input)
	})
}
