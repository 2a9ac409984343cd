// Package dfa implements the suite's Hyperscan-proxy CPU engine: each
// weakly-connected component (pattern/filter) of a homogeneous automaton is
// compiled to its own lazily-determinized DFA with byte-equivalence-class
// compression, and all component DFAs advance one transition per input
// byte.
//
// This mirrors how production regex engines execute large rule sets — they
// decompose the set and run small deterministic machines rather than
// interpreting a shared NFA frontier — and it is the property the paper's
// Table III measures: architecture-specific padding states inflate an NFA
// interpreter's active set (VASim, 26.7% overhead) but mostly vanish inside
// a DFA's precomputed transitions (Hyperscan, 2.92%).
//
// Counters cannot be determinized (their value is unbounded runtime state);
// New rejects automata containing them, as Hyperscan rejects such rules.
//
// The engine speaks the other engines' types (sim.Stats, sim.Report,
// sim.StreamState) and satisfies the segment and checkpoint contracts, so
// every scan layout drives it like any other engine. Its Stats carry
// Symbols and Reports only (a DFA has no NFA active set); CacheStats adds
// the transition-cache profile.
//
// Construction is map-free. A component keeps its interned frontiers in one
// arena, its transitions and report spans in flat dstate × class tables, and
// an open-addressed frontier-hash table; a generation-marked NFA step
// computes each new transition. A component with no start-of-data states
// files the empty frontier under its initial dstate 1, not the dead dstate
// 0 (see intern).
//
// A component degrades when its next dstate would exceed the state budget
// (16 per NFA state, plus 64) or the governor denies its cache bytes. Every
// degraded component steps in one sim.Engine, the fallback, built over the
// automaton without the cached components' starts: state IDs stay the
// automaton's, and a degrading component's frontier enters it through
// EnableState. The fallback is rebuilt once per byte in which the degraded
// set grows.
//
// Most components of a signature set sit idle on most bytes: they have
// all-input starts and their frontier is empty, so they are in their
// empty-frontier dstate (1 without start-of-data states, 0 with them).
// From there a byte no all-input start accepts leads back to the same
// dstate with no report. The engine keeps the cached components in two
// bitsets, act (non-idle) and idle, and one wake row per byte value, a bit
// per component: the bit stays set while the byte is in one of the
// component's start classes or its idle transition on the byte's class is
// not yet constructed. A byte steps act | (idle & wake[b]) in step order,
// which is also the order in which components ask the governor for cache
// bytes; every idle component it skips counts the cache hit its step would
// have been. The step order is ascending after Reset; a component that
// drops dead hands its position to the component in the last live
// position, as a list of the live components compacted by swap-removal
// would. An idle component is still live: the ledger charges it every
// byte and the progress heartbeat counts it.
package dfa

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// ErrCounters is returned for automata with counter elements.
var ErrCounters = errors.New("dfa: automaton contains counter elements")

// Stats is the engine's full profile (CacheStats, Run). Symbols and
// Reports reset with the stream (Reset); the cache counters describe the
// engine's long-lived transition cache and accumulate across Resets, like
// DFAStates.
type Stats struct {
	Symbols   int64
	Reports   int64
	DFAStates int // total interned DFA states across components
	Fallbacks int // components degraded: state budget or governor denial

	// CacheHits counts transitions found already interned; CacheMisses
	// counts transitions that had to be subset-constructed. Their ratio is
	// the Hyperscan-proxy's cache behaviour: a warm engine scanning stable
	// traffic approaches a 100% hit rate.
	CacheHits   int64
	CacheMisses int64
	// CacheEvictions counts interned DFA states abandoned when a component
	// degraded to the fallback.
	CacheEvictions int64
	// ConstructNanos is cumulative wall time spent in subset construction
	// (the cache-miss path).
	ConstructNanos int64

	// FallbackBytes counts input symbols stepped in the fallback (one per
	// degraded component per byte) — the extent of the stream that ran
	// degraded. Accumulates across Resets like the cache counters.
	FallbackBytes int64
	// CacheBytes estimates the bytes currently held by interned DFA
	// states (the quantity the governor's cache-byte budget bounds). It is
	// a level, not a cumulator.
	CacheBytes int64
}

// Add returns the field-wise sum s + o. Components never share cache
// state, so the sum over engines that split an automaton's components
// between them (levels included) is the whole-automaton engine's profile.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Symbols:        s.Symbols + o.Symbols,
		Reports:        s.Reports + o.Reports,
		DFAStates:      s.DFAStates + o.DFAStates,
		Fallbacks:      s.Fallbacks + o.Fallbacks,
		CacheHits:      s.CacheHits + o.CacheHits,
		CacheMisses:    s.CacheMisses + o.CacheMisses,
		CacheEvictions: s.CacheEvictions + o.CacheEvictions,
		ConstructNanos: s.ConstructNanos + o.ConstructNanos,
		FallbackBytes:  s.FallbackBytes + o.FallbackBytes,
		CacheBytes:     s.CacheBytes + o.CacheBytes,
	}
}

// ReportRate returns reports per symbol.
func (s Stats) ReportRate() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.Reports) / float64(s.Symbols)
}

// HitRate returns the transition-cache hit fraction in [0,1], 0 when no
// transitions were taken.
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// EvictionRate returns evicted DFA states per cache lookup, 0 when no
// transitions were taken.
func (s Stats) EvictionRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheEvictions) / float64(total)
}

// component is the static, lazily-extended DFA of one connected component.
// The fields a cache hit reads lead, filling one cache line.
type component struct {
	// Interned DFA states: dstate d's frontier is arena[fspan[d]], its
	// transition on class k trans[d*nClasses+k] (transUnset = not yet
	// computed), emitting repArena[reps[d*nClasses+k]]. dstate 0 is dead,
	// 1 initial; table maps a frontier (hash dhash[d]) to d, see lookup.
	trans    []uint32
	reps     []span
	nClasses int
	// rest is the dstate the component rests in: with all-input starts its
	// empty-frontier dstate (1 without start-of-data states, 0 with them;
	// see intern), where it is idle; without them the dead dstate 0, where
	// it is dropped until Reset.
	rest uint32
	cur  uint32 // the current dstate

	overflow bool  // degraded: the component steps in the engine's fallback
	id       int32 // the component's index in Engine.comps

	repArena []int32
	arena    []automata.StateID
	fspan    []span
	dhash    []uint64
	table    []uint32 // open-addressed: dstate+1, 0 = empty slot

	byteClass [256]uint16 // byte → equivalence class
	classRep  []byte      // class → representative byte, its smallest
	// classNext maps a byte to the next byte of its class, 0 after the
	// last (byte 0 follows no byte); nil when the component has no
	// all-input starts, so never idles. startBytes holds the bytes of its
	// start classes.
	classNext  []byte
	startBytes charset.Set

	states    []automata.StateID // members, ascending
	allStarts []automata.StateID // all-input starts
	sodStarts []automata.StateID // start-of-data starts

	budget int
	bytes  int64 // modeled bytes held by this component's dstates
	held   int64 // the part of bytes reserved with the attached governor

	// freeBytes marks a governor degradation: the interned dstates are
	// released once the frontier is handed over (degrade).
	freeBytes bool
}

// span is an offset/length pair into a component's arena or repArena.
type span struct{ off, n uint32 }

const transUnset = ^uint32(0)

// numDstates is the number of interned dstates.
func (c *component) numDstates() int { return len(c.fspan) }

// frontierOf returns dstate d's frontier, a view into the arena.
func (c *component) frontierOf(d uint32) []automata.StateID {
	sp := c.fspan[d]
	return c.arena[sp.off : sp.off+sp.n]
}

// hashFrontier is FNV-1a over the state IDs plus a murmur3 finalizer for
// the low bits the table masks with; a variable so tests can force collisions.
var hashFrontier = func(f []automata.StateID) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range f {
		h = (h ^ uint64(s)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// lookup returns f's dstate and its table slot, or false and the empty
// slot where f belongs. A hit needs the hash and the frontier itself to
// match.
func (c *component) lookup(f []automata.StateID, h uint64) (d uint32, slot int, ok bool) {
	mask := len(c.table) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		v := c.table[i]
		if v == 0 {
			return 0, i, false
		}
		if c.dhash[v-1] == h && slices.Equal(c.frontierOf(v-1), f) {
			return v - 1, i, true
		}
	}
}

// intern appends f as a new dstate and files it in the table. A frontier
// already filed is re-filed under the new dstate (last insert wins): a
// component with no start-of-data states has an empty initial frontier, so
// dstate 1 takes over the empty frontier from the dead dstate 0 and every
// later transition to the empty frontier lands on dstate 1, never on 0.
func (c *component) intern(f []automata.StateID, h uint64) uint32 {
	d := uint32(len(c.fspan))
	c.fspan = append(c.fspan, span{uint32(len(c.arena)), uint32(len(f))})
	c.arena = append(grow(c.arena, len(f)), f...)
	c.dhash = append(c.dhash, h)
	n := len(c.trans)
	c.trans = grow(c.trans, c.nClasses)[:n+c.nClasses]
	for i := n; i < len(c.trans); i++ {
		c.trans[i] = transUnset
	}
	c.reps = grow(c.reps, c.nClasses)[:n+c.nClasses]
	clear(c.reps[n:])
	first := d // file d, or every dstate into a grown table
	if 2*len(c.fspan) > len(c.table) {
		c.table, first = make([]uint32, max(16, 2*len(c.table))), 0
	}
	for ; first <= d; first++ {
		_, slot, _ := c.lookup(c.frontierOf(first), c.dhash[first])
		c.table[slot] = first + 1
	}
	return d
}

// grow returns s with room for n more elements, doubling its capacity (append
// grows large arenas by 1.25×, copying several times their final size).
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, max(2*cap(s), len(s)+n)), s...)
}

// budgetFactor is the state budget per NFA state of a component (plus
// 64): the component degrades rather than intern more dstates.
const budgetFactor = 16

// Engine executes one automaton via per-component lazy DFAs. Not safe for
// concurrent use; the underlying Automaton is shared and immutable, so run
// parallel streams with one Engine each.
type Engine struct {
	a     *automata.Automaton
	sets  []charset.Set
	comps []*component
	// compOf is each state's component: RestoreState splits a flat
	// frontier back into per-component frontiers with it.
	compOf []int32

	// mark[s] == gen: s is marked in step's current pass (see bump). extra
	// and next are scratch: starts outside the frontier and construction's
	// next frontier.
	mark  []uint32
	gen   uint32
	extra []automata.StateID
	next  []automata.StateID

	// act and idle hold the cached components that can still act, one bit
	// per step position (seq holds the component in each position, pos
	// each component's position): idle those with all-input starts in
	// their rest dstate, act the others. A component whose DFA reaches the
	// dead state and has no all-input starts can never match again before
	// the next Reset, so it is dropped from both — the
	// pattern-confirmed-dead elision production engines rely on — and the
	// component in the last live position takes its position (fill). A
	// degraded component leaves them for degraded. Their words from hi on
	// are zero. wake holds len(act) words per byte value b, from
	// b*len(act) on: bit p is set while b is in one of component seq[p]'s
	// start classes or its idle transition on b's class is not yet
	// constructed (see quiet). permuted says seq is no longer comps.
	act, idle, wake []uint64
	hi              int
	seq             []*component
	pos             []int32
	permuted        bool

	// fb steps the degraded components, in degradation order in degraded
	// (see the package doc); nil until the first degradation. handoff holds
	// the frontiers handed to it since the last handOver, and fbStale says
	// the degraded set grew since fb was built. fbFrontier is scratch for
	// fb's frontier, which the ledger charges per byte.
	fb         *sim.Engine
	degraded   []int32
	handoff    []automata.StateID
	fbStale    bool
	fbFrontier []automata.StateID

	offset int64
	stats  Stats

	// OnReport, if set, is invoked for every report: the engine's one
	// report output.
	OnReport func(sim.Report)

	// h is the attached hook bundle (see Attach), nil-guarded at every
	// touch point; the zero Set is a bare engine whose RunChecked is
	// byte-for-byte the Run loop and allocation-free (allocguard test).
	h hooks.Set

	// govErr stashes a run-stopping governor error raised inside
	// construction (computeTransition has no error return) for RunChecked
	// to surface. cacheBytes is the engine-wide modeled cache size (sum of
	// component bytes), reserved against the governor's cache budget.
	govErr     error
	cacheBytes int64

	// Progress baselines: the cache bytes and fallbacks already published
	// to h.Progress, so each chunk heartbeats only the delta.
	progCache     int64
	progFallbacks int64

	// led is h.Ledger, held in a field of the attr type itself: its
	// per-byte methods inline only into packages that import attr
	// directly, not through hooks.Set. ledSlot caches each component's
	// global attribution slot. The ledger is charged per-component scanned
	// bytes (only while the component is live or degraded — dead elision
	// stops the meter), construction/fallback frontier work, reports by
	// code, cache-byte levels, evictions, and degradations. The bytes are
	// folded, not metered per byte (foldBytes): ledMark is the Symbols
	// count every live and degraded component is charged through.
	led     *attr.Ledger
	ledSlot []int32
	ledMark int64

	// A run can stop inside a byte only at a cache miss: a governor error
	// or a panic in construction. missAt and missDeg place the last miss
	// (its step position, and how many components were degraded when its
	// byte began) for foldStopped; constructing is set while a miss is
	// being constructed.
	missAt, missDeg int
	constructing    bool
}

// New analyzes and decomposes a. It returns ErrCounters if the automaton
// uses counter elements.
func New(a *automata.Automaton) (*Engine, error) {
	if a.NumCounters() > 0 {
		return nil, ErrCounters
	}
	_, compIdx := a.Components()
	nComp := 0
	for _, c := range compIdx {
		if int(c)+1 > nComp {
			nComp = int(c) + 1
		}
	}
	e := &Engine{a: a, sets: a.Table().Sets(), comps: make([]*component, nComp), compOf: compIdx,
		mark: make([]uint32, a.NumStates())}
	for i := range e.comps {
		e.comps[i] = &component{id: int32(i)}
	}
	for s := 0; s < a.NumStates(); s++ {
		c := e.comps[compIdx[s]]
		c.states = append(c.states, automata.StateID(s))
	}
	// seen[h] == i+1: charset handle h already refined component i.
	seen := make([]uint32, len(e.sets))
	idlers := 0
	for i, c := range e.comps {
		e.prepare(c, seen, uint32(i+1))
		if len(c.allStarts) > 0 {
			idlers++
		}
	}
	// Every byte wakes a component that can idle until its idle
	// transitions on the byte's class are constructed.
	nw := (nComp + 63) / 64
	e.act, e.idle, e.wake = make([]uint64, nw), make([]uint64, nw), make([]uint64, 256*nw)
	e.seq, e.pos = slices.Clone(e.comps), make([]int32, nComp)
	for i := range e.pos {
		e.pos[i] = int32(i)
	}
	next := make([]byte, 256*idlers)
	for i, c := range e.comps {
		if len(c.allStarts) == 0 {
			continue
		}
		c.classNext, next = next[:256:256], next[256:]
		var above [256]byte // class → its smallest byte above b, 0 none
		for b := 255; b >= 0; b-- {
			k := c.byteClass[b]
			c.classNext[b], above[k] = above[k], byte(b)
			e.wake[b*nw+i>>6] |= 1 << (i & 63)
		}
	}
	e.Reset()
	return e, nil
}

// dstateCost models the bytes one interned dstate holds: struct header,
// frontier members, and per-class transition + report storage. A model,
// not an exact measurement — the budget needs monotonicity, not bytes.
func dstateCost(frontierLen, nClasses int) int64 {
	return 96 + 4*int64(frontierLen) + 12*int64(nClasses)
}

// degrade completes a degradation admit counted: it logs it (to the tracer
// too if trace), lists component ci as degraded with its frontier f handed
// to the fallback, and for a governor degradation (freeBytes) releases the
// interned dstates. The state-budget overflow keeps them:
// DFAStates in existing output must not change.
func (e *Engine) degrade(c *component, ci int, f []automata.StateID, trace bool) {
	if trace && e.h.Tracer != nil {
		e.h.Tracer.OnCacheEvent(e.offset, ci, telemetry.CacheEviction)
	}
	e.ledgerDegrade(ci, int64(c.numDstates()))
	e.degraded = append(e.degraded, int32(ci))
	e.handoff = append(e.handoff, f...)
	e.fbStale = true
	if c.freeBytes {
		e.cacheBytes -= c.bytes
		e.h.Governor.ReleaseCache(c.held)
		c.bytes, c.held, c.freeBytes = 0, 0, false
		c.arena, c.fspan, c.dhash, c.trans, c.reps, c.repArena, c.table = nil, nil, nil, nil, nil, nil, nil
	}
}

// handOver arms the fallback with the handed-over frontiers at the current
// offset. When the degraded set grew it first rebuilds the fallback over
// the automaton without the still-cached components' starts, carrying the
// old fallback's frontier over.
func (e *Engine) handOver() {
	if e.fbStale {
		var cached []automata.StateID
		for _, c := range e.comps {
			if !c.overflow {
				cached = append(append(cached, c.allStarts...), c.sodStarts...)
			}
		}
		if e.fb != nil {
			e.handoff = append(e.handoff, e.fb.FrontierSnapshot()...)
		}
		e.fb = sim.New(e.a.WithoutStarts(cached))
		e.fb.OnReport = func(r sim.Report) { e.emit(r.Code) } // at e.offset
		e.fbStale = false
	}
	e.fb.SetOffset(e.offset)
	for _, s := range e.handoff {
		e.fb.EnableState(s)
	}
	e.handoff = e.handoff[:0]
}

// admit interns frontier f (hash h) as a new dstate of c if the state
// budget and the governor allow it. Otherwise it counts a degradation of
// c, freeBytes when the governor refused, and returns false for the caller
// to finish with degrade; or it returns a run-stopping governor error and
// changes nothing.
func (e *Engine) admit(c *component, f []automata.StateID, h uint64) (uint32, bool, error) {
	refuse := func(freeBytes bool) (uint32, bool, error) {
		c.overflow, c.freeBytes = true, freeBytes
		e.stats.Fallbacks++
		e.stats.CacheEvictions += int64(c.numDstates())
		return 0, false, nil
	}
	if c.numDstates() >= c.budget {
		return refuse(false)
	}
	cost := dstateCost(len(f), c.nClasses)
	if e.h.Governor != nil {
		granted, err := e.h.Governor.GrowCache(guard.SiteDFAConstruct, cost)
		if err != nil {
			return 0, false, err
		}
		if !granted {
			return refuse(true)
		}
		c.held += cost
	}
	c.bytes += cost
	e.cacheBytes += cost
	return c.intern(f, h), true, nil
}

// prepare computes byte classes and the initial DFA states of a component.
// seen is a per-handle stamp array shared across components; stamp is this
// component's.
func (e *Engine) prepare(c *component, seen []uint32, stamp uint32) {
	for _, s := range c.states {
		switch e.a.Start(s) {
		case automata.StartAllInput:
			c.allStarts = append(c.allStarts, s)
		case automata.StartOfData:
			c.sodStarts = append(c.sodStarts, s)
		}
	}
	// Byte equivalence classes: two bytes are equivalent iff every
	// distinct charset in the component treats them identically.
	c.byteClass, c.classRep = charset.Classes(func(yield func(charset.Set) bool) {
		for _, s := range c.states {
			if h := e.a.ClassHandle(s); seen[h] != stamp {
				seen[h] = stamp
				if !yield(e.sets[h]) {
					return
				}
			}
		}
	})
	c.nClasses = len(c.classRep)
	c.budget = budgetFactor*len(c.states) + 64
	if len(c.allStarts) > 0 && len(c.sodStarts) == 0 {
		c.rest = 1 // the empty frontier's alias
	}
	for _, s := range c.allStarts {
		c.startBytes = c.startBytes.Union(e.sets[e.a.ClassHandle(s)])
	}
	// dstate 0: dead (empty frontier). dstate 1: initial (start-of-data
	// frontier) — the same empty frontier when there are no start-of-data
	// states, which then re-files it under dstate 1 (see intern).
	c.intern(nil, hashFrontier(nil))
	c.intern(c.sodStarts, hashFrontier(c.sodStarts)) // ascending, as states
	cost := dstateCost(0, c.nClasses) + dstateCost(len(c.sodStarts), c.nClasses)
	c.bytes += cost
	e.cacheBytes += cost
}

// bump starts a new marking pass and returns its generation. On uint32 wrap
// the marks are cleared, so no stale mark can equal a live generation.
func (e *Engine) bump() uint32 {
	e.gen++
	if e.gen == 0 {
		clear(e.mark)
		e.gen = 1
	}
	return e.gen
}

// step is the NFA step under construction: it considers every state of
// frontier f, then every all-input start in all that is not in f, in that
// order. A considered state whose charset contains b appends its report
// code to fired and its unmarked successors to next, in discovery order.
func (e *Engine) step(f, all []automata.StateID, b byte, next []automata.StateID, fired []int32) ([]automata.StateID, []int32) {
	e.extra = e.extra[:0]
	if len(all) > 0 {
		g := e.bump()
		for _, s := range f {
			e.mark[s] = g
		}
		for _, s := range all {
			if e.mark[s] != g {
				e.extra = append(e.extra, s)
			}
		}
	}
	g := e.bump()
	for _, list := range [2][]automata.StateID{f, e.extra} {
		for _, s := range list {
			if !e.sets[e.a.ClassHandle(s)].Contains(b) {
				continue
			}
			if e.a.IsReport(s) {
				fired = append(fired, e.a.ReportCode(s))
			}
			for _, t := range e.a.Succ(s) {
				if e.mark[t] != g {
					e.mark[t] = g
					next = append(next, t)
				}
			}
		}
	}
	return next, fired
}

// computeTransition determinizes one (dstate, byte-class) edge of
// component c, in step position p.
func (e *Engine) computeTransition(c *component, p int, di uint32, cls uint16) {
	// Construction boundary: the governor may inject a fault here or
	// already hold a sticky trip; either stops the run (stashed in govErr
	// — this function has no error return).
	if e.h.Governor != nil {
		if err := e.h.Governor.Inject(guard.SiteDFAConstruct); err != nil {
			e.govErr = err
			return
		}
	}
	repOff := len(c.repArena)
	e.next, c.repArena = e.step(c.frontierOf(di), c.allStarts, c.classRep[cls], e.next[:0], c.repArena)
	slices.Sort(e.next)
	h := hashFrontier(e.next)
	ni, _, ok := c.lookup(e.next, h)
	if !ok {
		var err error
		if ni, ok, err = e.admit(c, e.next, h); !ok {
			// A governor error, or a degradation stepByte finishes.
			if err != nil {
				e.govErr = err
			}
			c.repArena = c.repArena[:repOff]
			return
		}
	}
	t := int(di)*c.nClasses + int(cls)
	c.trans[t] = ni
	c.reps[t] = span{uint32(repOff), uint32(len(c.repArena) - repOff)}
	if di == c.rest && len(c.allStarts) > 0 && !c.startBytes.Contains(c.classRep[cls]) {
		e.quiet(c, p, cls)
	}
}

// quiet clears the bit of component c, in step position p, in the wake
// rows of the bytes of class cls, now that its idle transition on cls,
// back to idle with no report, is cached: skipping the component on those
// bytes is that cache hit.
func (e *Engine) quiet(c *component, p int, cls uint16) {
	nw, w, bit := len(e.act), p>>6, uint64(1)<<(p&63)
	for b := c.classRep[cls]; ; b = c.classNext[b] {
		e.wake[int(b)*nw+w] &^= bit
		if c.classNext[b] == 0 {
			return
		}
	}
}

// eachLive calls fn for every cached component that can still act, active
// or idle, in step order.
func (e *Engine) eachLive(fn func(ci int)) {
	for w := range e.act {
		for m := e.act[w] | e.idle[w]; m != 0; m &= m - 1 {
			fn(int(e.seq[w<<6|bits.TrailingZeros64(m)].id))
		}
	}
}

// numLive is the number of components eachLive visits.
func (e *Engine) numLive() int {
	n := 0
	for w := range e.act {
		n += bits.OnesCount64(e.act[w] | e.idle[w])
	}
	return n
}

// park files the component in step position p, now in dstate d and not
// dead, in idle or act.
func (e *Engine) park(p int, d uint32) {
	e.unpark(p)
	if d == e.seq[p].rest {
		e.idle[p>>6] |= 1 << (p & 63)
	} else {
		e.act[p>>6] |= 1 << (p & 63)
	}
}

// settle refiles component c, in step position p, whose step on byte b to
// dstate next came to or left its rest dstate: it goes idle or wakes, or
// it is dropped at the dead state and its position filled. m is the rest
// of p's word still to step; settle returns it updated (see fill).
func (e *Engine) settle(c *component, p int, next uint32, m uint64, b byte) uint64 {
	if next != c.rest || len(c.allStarts) > 0 {
		e.park(p, next)
		return m
	}
	// Permanently dead until Reset: drop from the scan loop, the byte
	// meter stopping after this byte.
	if e.led != nil {
		e.led.AddBytes(e.ledSlot[c.id], e.stats.Symbols-e.ledMark)
	}
	e.unpark(p)
	return e.fill(p, m, b)
}

// unpark drops the component in step position p from act and idle.
func (e *Engine) unpark(p int) {
	e.act[p>>6] &^= 1 << (p & 63)
	e.idle[p>>6] &^= 1 << (p & 63)
}

// fill gives position p, whose component dropped dead stepping byte b, to
// the component in the last live position, as swap-removal from a list of
// the live components would: it keeps its hit, and it is stepped next if
// b moves it. m is the rest of p's word still to step; fill returns it
// updated.
func (e *Engine) fill(p int, m uint64, b byte) uint64 {
	last := -1
	for ; e.hi > p>>6; e.hi-- {
		if lw := e.act[e.hi-1] | e.idle[e.hi-1]; lw != 0 {
			last = (e.hi-1)<<6 | (63 - bits.LeadingZeros64(lw))
			break
		}
	}
	if last < p {
		return m
	}
	c := e.seq[last]
	w, bit := p>>6, uint64(1)<<(p&63)
	lw, lbit := last>>6, uint64(1)<<(last&63)
	active := e.act[lw]&lbit != 0
	e.act[lw] &^= lbit
	e.idle[lw] &^= lbit
	if active {
		e.act[w] |= bit
	} else {
		e.idle[w] |= bit
	}
	e.seq[p], e.pos[c.id], e.permuted = c, int32(p), true
	if c.classNext != nil {
		// The dead component could not idle: p's wake bits are clear.
		e.rewake(p, c)
	}
	if lw == w {
		m &^= lbit
	} else {
		e.stats.CacheHits++ // its word has not counted it yet
	}
	if active || e.wake[int(b)*len(e.act)+w]&bit != 0 {
		m |= bit
	}
	return m
}

// rewake writes component c's wake bits at position p from their
// definition: set for the bytes of its start classes and of the classes
// whose idle transition is not cached, clear when it cannot idle.
func (e *Engine) rewake(p int, c *component) {
	nw, w, bit := len(e.act), p>>6, uint64(1)<<(p&63)
	for b := range 256 {
		if c.classNext != nil && !c.overflow && (c.startBytes.Contains(byte(b)) ||
			c.trans[int(c.rest)*c.nClasses+int(c.byteClass[b])] == transUnset) {
			e.wake[b*nw+w] |= bit
		} else {
			e.wake[b*nw+w] &^= bit
		}
	}
}

// Attach installs h as the engine's hook bundle, replacing whatever was
// attached (the zero Set detaches everything). Only hooks that changed
// take their attach-time baseline:
//
//   - a new Governor is asked to reserve the engine's already-interned
//     states against its cache budget (best effort — before any scan they
//     are a handful of near-empty dstates; a degradation releases only
//     what was reserved). It bounds RunChecked and subset construction;
//     bare Run calls stay ungoverned;
//   - a new Progress tracker is heartbeaten cache-byte and fallback
//     deltas from the current levels;
//   - a new Ledger has every component's global attribution slot resolved
//     once here, so the per-byte hooks are pure array increments. Its
//     compOf map must cover this engine's (possibly slice-local) state
//     IDs; the engine never commits it.
//
// The Tracer receives OnReport plus OnCacheEvent for misses and
// evictions; hits are counted in Stats but not traced (one per live
// component per byte).
func (e *Engine) Attach(h hooks.Set) {
	old := e.h
	e.h = h
	if h.Governor != old.Governor {
		granted, _ := h.Governor.GrowCache(guard.SiteDFAConstruct, e.cacheBytes)
		for _, c := range e.comps {
			c.held = 0
			if granted {
				c.held = c.bytes
			}
		}
	}
	if h.Progress != old.Progress {
		e.progCache = e.cacheBytes
		e.progFallbacks = int64(e.stats.Fallbacks)
	}
	if h.Ledger != old.Ledger {
		e.foldBytes()
		e.led, e.ledSlot, e.ledMark = h.Ledger, nil, e.stats.Symbols
		if e.led != nil {
			e.ledSlot = make([]int32, len(e.comps))
			for i, c := range e.comps {
				if len(c.states) > 0 {
					e.ledSlot[i] = e.led.Slot(c.states[0])
				}
			}
		}
	}
}

// Flush folds the scanned bytes into the attached ledger (if any) and
// records each component's current cache-byte level there: a gauge-like
// quantity sampled at run end, at Reset and at each checkpoint save,
// whose high-water the ledger keeps (the other flow counters are charged
// at their events).
func (e *Engine) Flush() {
	if e.led == nil {
		return
	}
	e.foldBytes()
	for i, c := range e.comps {
		e.led.SetCacheBytes(e.ledSlot[i], c.bytes)
	}
}

// foldBytes charges every live and degraded component the bytes consumed
// since the last fold. A byte is charged to each component stepped on it,
// cached or in the fallback, and to each idle component it skipped;
// dead-component elision charges a dropped component through its last
// byte when it drops it (stepByte). So the per-component totals equal the
// whole-stream scan's regardless of slicing, exactly as a per-byte meter's
// would.
func (e *Engine) foldBytes() {
	if e.led == nil {
		return
	}
	if d := e.stats.Symbols - e.ledMark; d > 0 {
		e.eachLive(func(ci int) { e.led.AddBytes(e.ledSlot[ci], d) })
		for _, ci := range e.degraded {
			e.led.AddBytes(e.ledSlot[ci], d)
		}
	}
	e.ledMark = e.stats.Symbols
}

// foldStopped is foldBytes for a run stopped inside the byte of the last
// cache miss: only the components up to and including the missed one, and
// those degraded within the byte, were stepped on it; the rest are charged
// through the byte before.
func (e *Engine) foldStopped() {
	if e.led == nil {
		return
	}
	e.foldBytes()
	e.eachLive(func(ci int) {
		if int(e.pos[ci]) > e.missAt {
			e.led.AddBytes(e.ledSlot[ci], -1)
		}
	})
	for _, ci := range e.degraded[:e.missDeg] {
		e.led.AddBytes(e.ledSlot[ci], -1)
	}
}

// ledgerDegrade charges one component degradation — evicted dstates and
// the DFA→NFA fallback — to the component's attribution slot.
func (e *Engine) ledgerDegrade(ci int, evicted int64) {
	if e.led == nil {
		return
	}
	e.led.AddEvictions(e.ledSlot[ci], evicted)
	e.led.AddFallback(e.ledSlot[ci])
}

// Reset restarts all component DFAs at their initial state, and the
// fallback at the start of data, and clears statistics. Interned DFA
// states are retained, and degraded components stay degraded.
func (e *Engine) Reset() {
	e.Flush()
	if e.permuted {
		// Back to ascending order, rewriting the wake bits of every
		// position a fill moved a component that can idle into or out of
		// (seq keeps the last component filed in each position, whose
		// bits the position holds).
		for p, c := range e.comps {
			if was := e.seq[p]; was != c || e.pos[p] != int32(p) {
				e.seq[p], e.pos[p] = c, int32(p)
				if was.classNext != nil || c.classNext != nil {
					e.rewake(p, c)
				}
			}
		}
		e.permuted = false
	}
	clear(e.act)
	clear(e.idle)
	e.hi = len(e.act)
	for p, c := range e.seq {
		c.cur = 1
		if !c.overflow {
			e.park(p, 1)
		}
	}
	if e.fb != nil {
		e.fb.Reset()
	}
	e.handoff = e.handoff[:0]
	e.offset = 0
	e.stats.Reports = 0
	e.stats.Symbols = 0
	e.ledMark = 0
}

// Stats returns the symbols and reports since the last Reset — the
// statistics every engine keeps (a DFA has no NFA active set).
func (e *Engine) Stats() sim.Stats {
	return sim.Stats{Symbols: e.stats.Symbols, Reports: e.stats.Reports}
}

// CacheStats returns the full profile: Stats plus the transition-cache
// counters and the current DFA state count and cache level.
func (e *Engine) CacheStats() Stats {
	s := e.stats
	s.DFAStates = 0
	for _, c := range e.comps {
		s.DFAStates += c.numDstates()
	}
	s.CacheBytes = e.cacheBytes
	return s
}

// SetOnReport sets the OnReport callback (nil detaches).
func (e *Engine) SetOnReport(fn func(sim.Report)) { e.OnReport = fn }

func (e *Engine) emit(code int32) {
	e.stats.Reports++
	if e.led != nil {
		e.led.Report(code)
	}
	if e.h.Tracer != nil {
		// DFA reports carry no NFA state ID (the report state was folded
		// into the dstate); the schema uses state 0 for them.
		e.h.Tracer.OnReport(e.offset, 0, code)
	}
	if e.OnReport != nil {
		e.OnReport(sim.Report{Offset: e.offset, Code: code})
	}
}

// Run consumes input, advancing every component DFA one transition per
// byte, and returns the full profile (CacheStats). It may be called
// repeatedly to continue the same stream.
func (e *Engine) Run(input []byte) Stats {
	e.run(input)
	return e.CacheStats()
}

func (e *Engine) run(input []byte) {
	for _, b := range input {
		e.stepByte(b)
	}
	e.Flush()
}

// Step consumes one input symbol.
func (e *Engine) Step(b byte) { e.stepByte(b) }

// RunChecked is Run under the attached hooks: the input is consumed
// through the shared chunk protocol (hooks.Set.Chunks) at
// guard.SiteDFAChunk, and run-stopping governor errors raised inside
// subset construction are surfaced. The lazy DFA has no NFA active set,
// so no active-set budget applies and the engine heartbeats for itself
// (scanChunk). On a trip the partial statistics are returned with the
// *guard.TripError. With no governor, progress tracker or checkpointer
// attached it is exactly Run. A panic in construction (an injected fault)
// leaves the ledger charged as the byte left it (foldStopped).
func (e *Engine) RunChecked(input []byte) (sim.Stats, error) {
	if !e.h.Chunked() {
		e.run(input)
		return e.Stats(), nil
	}
	defer func() {
		if e.constructing {
			e.constructing = false
			e.foldStopped()
		}
	}()
	err := e.h.Chunks(guard.SiteDFAChunk, input, e.scanChunk, nil, nil)
	e.Flush()
	return e.Stats(), err
}

// scanChunk steps chunk until a governor error raised inside construction
// stops it, then heartbeats the chunk (its full size even when cut short,
// like the budget it was charged), the live and degraded component count,
// and the cache-byte and fallback deltas since the last beat.
func (e *Engine) scanChunk(chunk []byte) error {
	for _, b := range chunk {
		e.stepByte(b)
		if e.govErr != nil {
			break
		}
	}
	if p := e.h.Progress; p != nil {
		p.Beat(int64(len(chunk)), int64(e.numLive()+len(e.degraded)))
		if d := e.cacheBytes - e.progCache; d != 0 {
			p.AddCache(d)
			e.progCache = e.cacheBytes
		}
		if d := int64(e.stats.Fallbacks) - e.progFallbacks; d != 0 {
			p.AddFallbacks(d)
			e.progFallbacks = int64(e.stats.Fallbacks)
		}
	}
	return e.govErr
}

// miss constructs component c's transition from dstate di on byte b,
// which its step in position p found uncached, and turns the hit stepByte
// counted for it into a miss. A component that degrades leaves act and
// idle for the fallback. It reports true when a governor error stopped
// the run inside the construction: the components after p were not
// stepped on b.
func (e *Engine) miss(c *component, p int, di uint32, b byte) bool {
	ci := int(c.id)
	e.stats.CacheMisses++
	e.stats.CacheHits--
	e.missAt = p
	// The components after p in its word counted hits they have not made
	// yet. They are taken back while construction can stop the run, by a
	// governor error or a panic under RunChecked, and returned after.
	w := p >> 6
	tail := int64(bits.OnesCount64((e.act[w] | e.idle[w]) >> (p & 63) >> 1))
	e.stats.CacheHits -= tail
	if e.led != nil {
		// Frontier work for a cached DFA is the construction events, not
		// the per-byte transitions: a warm cache does ~zero work.
		e.led.AddWork(e.ledSlot[ci], 1)
	}
	start := time.Now()
	e.constructing = true
	e.computeTransition(c, p, di, c.byteClass[b])
	e.constructing = false
	e.stats.ConstructNanos += time.Since(start).Nanoseconds()
	if e.h.Tracer != nil {
		e.h.Tracer.OnCacheEvent(e.offset, ci, telemetry.CacheMiss)
	}
	if e.govErr != nil {
		// Run-stopping governor error inside construction: the transition
		// was not computed; RunChecked surfaces govErr.
		e.foldStopped()
		return true
	}
	e.stats.CacheHits += tail
	if c.overflow {
		// The component steps this byte in the fallback, from the current
		// dstate's frontier.
		e.degrade(c, ci, c.frontierOf(di), true)
		e.unpark(p)
	}
	return false
}

func (e *Engine) stepByte(b byte) {
	e.stats.Symbols++
	e.missDeg = len(e.degraded)
	nw := len(e.act)
	row := e.wake[int(b)*nw:][:e.hi]
words:
	for w := range row {
		// Every live component hits but those that miss: an idle one not
		// woken hits its cached transition back to idle.
		m, iw := e.act[w], e.idle[w]
		e.stats.CacheHits += int64(bits.OnesCount64(m | iw))
		if iw != 0 {
			// Kernels whose components never idle leave the wake rows
			// untouched.
			m |= iw & row[w]
		}
		for m != 0 {
			// m's lowest set bit, counted by POPCNT: TrailingZeros64 is
			// BSF on baseline amd64, whose false dependency on its output
			// register chained each step to the last one's loads and cost
			// never-idle kernels a third of their speed.
			p := w<<6 | bits.OnesCount64(m&-m-1)
			c := e.seq[p]
			di := c.cur
			t := int(di)*c.nClasses + int(c.byteClass[b])
			next := c.trans[t]
			if next == transUnset {
				// Construct, then step p again from the now cached
				// transition, unless the run stopped or the component
				// degraded. The hit path's values need not outlive the
				// call.
				if e.miss(c, p, di, b) {
					break words
				}
				if c.overflow {
					m &= m - 1
				}
				continue
			}
			m &= m - 1
			c.cur = next
			r := c.reps[t]
			if (next == c.rest) != (di == c.rest) {
				m = e.settle(c, p, next, m, b)
			}
			if r.n > 0 {
				for _, code := range c.repArena[r.off : r.off+r.n] {
					e.emit(code)
				}
			}
		}
	}
	if e.fbStale {
		e.handOver()
	}
	if e.govErr != nil {
		return
	}
	if len(e.degraded) > 0 {
		e.stepFallback(b)
	}
	e.offset++
}

// stepFallback steps byte b in the fallback. Every degraded component
// counts one fallback byte. The ledger charges each its fallback work, as
// sim charges activations: one unit per frontier state plus the step
// itself.
func (e *Engine) stepFallback(b byte) {
	e.stats.FallbackBytes += int64(len(e.degraded))
	if e.led != nil {
		e.fbFrontier = e.fb.AppendFrontier(e.fbFrontier[:0])
		for _, s := range e.fbFrontier {
			e.led.AddWork(e.ledSlot[e.compOf[s]], 1)
		}
		for _, ci := range e.degraded {
			e.led.AddWork(e.ledSlot[ci], 1)
		}
	}
	e.fb.Step(b)
}

// CaptureState snapshots the engine between Run calls: the absolute
// offset of the next byte and the union of the components' NFA frontiers
// (FrontierSnapshot). Component state sets are disjoint, so the union
// loses nothing. The frontier is the determinization-independent
// representation — a dstate index would be meaningless in another engine
// whose lazy cache interned different states — so a snapshot restores
// into any engine built from the same automaton, whatever its cache or
// degradation state. The snapshot shares no storage with the engine.
func (e *Engine) CaptureState() *sim.StreamState {
	return &sim.StreamState{Offset: e.offset, Frontier: e.FrontierSnapshot()}
}

// FrontierSnapshot returns the sorted union of the live components' dstate
// frontiers and the fallback's frontier (a dead component's is empty).
func (e *Engine) FrontierSnapshot() []automata.StateID {
	var f []automata.StateID
	if e.fb != nil {
		f = e.fb.FrontierSnapshot()
	}
	e.eachLive(func(ci int) { c := e.comps[ci]; f = append(f, c.frontierOf(c.cur)...) })
	slices.Sort(f)
	return f
}

// SetOffset positions the engine at an absolute stream offset without
// touching any other state (see sim.Engine.SetOffset).
func (e *Engine) SetOffset(off int64) {
	e.offset = off
	if e.fb != nil {
		e.fb.SetOffset(off)
	}
}

// Speculative is always false: the printed DFA-state and cache statistics
// record the engine's interning history, which a second engine scanning a
// segment speculatively would split. Segments cascade on one engine.
func (e *Engine) Speculative() bool { return false }

// RestoreState resets the engine and re-seeds it to continue the logical
// stream at s. Per-stream statistics (Symbols, Reports) restart from
// zero, exactly like Reset; cache counters persist. A degraded component's
// frontier is handed to the fallback; a cached component interns the
// frontier as a dstate — subject to the usual state/cache budgets, so a
// restore can itself degrade a component (reports unchanged).
// Returns an error when the snapshot names a state this automaton does
// not have or holds counter values (it was captured from a different
// automaton), or when the governor holds a run-stopping trip.
func (e *Engine) RestoreState(s *sim.StreamState) error {
	if len(s.Counters) > 0 {
		return errors.New("dfa: RestoreState: snapshot holds counter values")
	}
	per := make([][]automata.StateID, len(e.comps))
	for _, id := range s.Frontier {
		if int(id) >= len(e.compOf) {
			return fmt.Errorf("dfa: RestoreState: state %d outside the automaton's %d states", id, len(e.compOf))
		}
		per[e.compOf[id]] = append(per[e.compOf[id]], id)
	}
	e.Reset()
	for _, ci := range e.degraded {
		e.handoff = append(e.handoff, per[ci]...)
	}
	clear(e.act)
	clear(e.idle)
	for ci, c := range e.comps {
		if c.overflow {
			continue
		}
		f := per[ci]
		slices.Sort(f)
		h := hashFrontier(f)
		di, _, ok := c.lookup(f, h)
		if !ok {
			var err error
			if di, ok, err = e.admit(c, f, h); err != nil {
				return err
			}
			if !ok {
				// Degrade like the construction path (a state-budget
				// overflow is not traced here).
				e.degrade(c, ci, f, c.freeBytes)
				continue
			}
		}
		c.cur = di
		if di == c.rest && len(c.allStarts) == 0 {
			// Empty frontier and nothing can re-arm it: elide, as stepByte
			// would have.
			continue
		}
		e.park(int(e.pos[ci]), di)
	}
	e.offset = s.Offset
	if len(e.degraded) > 0 {
		e.handOver()
	}
	return nil
}
