package prefilter

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"automatazoo/internal/acmatch"
	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// pending is one report buffered inside the current symbol, awaiting the
// per-offset canonical merge. residual-sourced reports skip the ledger
// (the residual engine's own ledger already charged them).
type pending struct {
	rep   sim.Report
	resid bool
}

// refEngine is the engine as it was before its NFA stage became one
// sim.Engine: a private confirm interpreter over the anchored components'
// post-chain states, beside an embedded sim engine scanning an extracted
// copy of the unanchored components, stitched together through ID remaps.
// It is the oracle only (TestEngineMatchesReference). The one change: the
// residual engine charges a ledger of its own from col (set by the test)
// where it charged a view of the attached one, so commitLedgers commits
// both.
type refEngine struct {
	a       *automata.Automaton
	matcher *acmatch.Matcher // nil when no component is anchored
	anchors []anchor
	wa, we  []int64 // per-matcher-node chain active/enabled weights

	// residual runs the non-anchored components in lockstep (nil when
	// every component is anchored). residualInv/residualLoc translate its
	// local state IDs from/to whole-automaton IDs; residualLoc is -1 for
	// anchored states.
	residual    *sim.Engine
	residualInv []automata.StateID
	residualLoc []int32

	numStates  int
	anchored   int
	unanchored int

	// Confirm interpreter over the full automaton: the frontier holds the
	// anchored components' post-chain states, seeded by anchor hits.
	sets     []charset.Set
	css      []charset.Handle
	succ     [][]automata.StateID
	isReport []bool
	code     []int32
	frontier []automata.StateID
	next     []automata.StateID
	mark     []uint32
	gen      uint32

	acState int32
	offset  int64

	// OnReport is the report output, exactly sim.Engine's.
	OnReport func(sim.Report)

	stats      sim.Stats // this engine's share; Stats() folds the residual in
	anchorHits int64
	pend       []pending

	onAnchorFn func(int) // bound once so the hot loop never allocates

	// h is the attached hook bundle (see Attach), nil-guarded exactly like
	// sim.Engine's so the disabled path stays allocation-free.
	h           hooks.Set
	telemetryOn bool
	// led is h.Ledger, held as a field of the attr type so its hot-path
	// methods inline (see sim.Engine.Attach).
	led             *attr.Ledger
	ledMark         int64
	anchorSlot      []int32 // per-anchor attribution slot (when led != nil)
	anchorCompSlots []int32 // distinct slots of anchored components

	col      *attr.Collector
	residLed *attr.Ledger
}

func newReference(a *automata.Automaton) (*refEngine, error) {
	_, compIdx := a.Components()
	nComp := 0
	for _, c := range compIdx {
		if int(c)+1 > nComp {
			nComp = int(c) + 1
		}
	}
	// Group start states per component.
	starts := make([][]automata.StateID, nComp)
	for _, s := range a.Starts() {
		starts[compIdx[s]] = append(starts[compIdx[s]], s)
	}
	pred := a.Reverse()

	// Components containing counter elements cannot be confirmed by the
	// stateless frontier stepper; they stay in the residual engine.
	hasCounter := make([]bool, nComp)
	for i := 0; i < a.NumStates(); i++ {
		if a.Kind(automata.StateID(i)) == automata.KindCounter {
			hasCounter[compIdx[i]] = true
		}
	}

	n := a.NumStates()
	e := &refEngine{
		a:         a,
		numStates: n,
		sets:      a.Table().Sets(),
		css:       make([]charset.Handle, n),
		succ:      make([][]automata.StateID, n),
		isReport:  make([]bool, n),
		code:      make([]int32, n),
		mark:      make([]uint32, n),
	}
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		e.css[id] = a.ClassHandle(id)
		e.succ[id] = a.Succ(id)
		e.isReport[id] = a.IsReport(id)
		e.code[id] = a.ReportCode(id)
	}

	anchoredComp := make([]bool, nComp)
	var literals [][]byte
	for c := 0; c < nComp; c++ {
		if hasCounter[c] {
			e.unanchored++
			continue
		}
		lit, tail, ok := extractAnchor(a, starts[c], pred)
		if ok {
			anchoredComp[c] = true
			e.anchors = append(e.anchors, anchor{literal: lit, tail: tail})
			literals = append(literals, lit)
			e.anchored++
		} else {
			e.unanchored++
		}
	}
	if len(literals) > 0 {
		m, err := acmatch.Compile(literals)
		if err != nil {
			return nil, fmt.Errorf("prefilter: %w", err)
		}
		wa, we, err := m.PrefixWeights(literals)
		if err != nil {
			return nil, fmt.Errorf("prefilter: %w", err)
		}
		e.matcher, e.wa, e.we = m, wa, we
	}
	if e.unanchored > 0 {
		res, loc, inv, err := extractComponents(a, compIdx, func(c int32) bool { return !anchoredComp[c] })
		if err != nil {
			return nil, err
		}
		e.residual = sim.New(res)
		e.residualInv, e.residualLoc = inv, loc
		e.residual.OnReport = e.residReport
	}
	e.onAnchorFn = e.onAnchor
	e.Reset()
	return e, nil
}

// Automaton returns the automaton the engine executes.
func (e *refEngine) Automaton() *automata.Automaton { return e.a }

// Anchored and Unanchored report how many components each strategy covers.
func (e *refEngine) Anchored() int   { return e.anchored }
func (e *refEngine) Unanchored() int { return e.unanchored }

// residReport buffers one residual-engine report, translated back to
// whole-automaton state numbering, into the current symbol's merge buffer.
func (e *refEngine) residReport(r sim.Report) {
	e.pend = append(e.pend, pending{
		rep:   sim.Report{Offset: r.Offset, State: e.residualInv[r.State], Code: r.Code},
		resid: true,
	})
}

// onAnchor handles one anchor hit at the current offset: the chain tail is
// active, so emit its report (if any) and enable its successors for the
// next symbol.
func (e *refEngine) onAnchor(pat int) {
	an := e.anchors[pat]
	e.anchorHits++
	if e.led != nil {
		e.led.AddWork(e.anchorSlot[pat], int64(len(an.literal)))
	}
	if e.isReport[an.tail] {
		e.pend = append(e.pend, pending{rep: sim.Report{Offset: e.offset, State: an.tail, Code: e.code[an.tail]}})
	}
	for _, t := range e.succ[an.tail] {
		e.enable(t)
	}
}

// enable puts id on the next-symbol confirm frontier (deduplicated).
func (e *refEngine) enable(id automata.StateID) {
	if e.mark[id] != e.gen {
		e.mark[id] = e.gen
		e.next = append(e.next, id)
	}
}

// activate processes a confirm state that matched the current symbol.
// Confirm states are never start states and the frontier is deduplicated,
// so activation needs no per-cycle mark.
func (e *refEngine) activate(id automata.StateID) {
	e.stats.Active++
	if e.telemetryOn && e.h.Tracer != nil {
		e.h.Tracer.OnActivate(e.offset, id)
	}
	if e.led != nil {
		e.led.Activate(id)
	}
	if e.isReport[id] {
		e.pend = append(e.pend, pending{rep: sim.Report{Offset: e.offset, State: id, Code: e.code[id]}})
	}
	for _, t := range e.succ[id] {
		e.enable(t)
	}
}

// flushPend sorts the symbol's buffered reports into canonical (code,
// state) order — all offsets are equal — and emits them. A manual
// insertion sort keeps the disabled path allocation-free (sort.Slice's
// closure would allocate every symbol).
func (e *refEngine) flushPend() {
	p := e.pend
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && (p[j].rep.Code < p[j-1].rep.Code ||
			(p[j].rep.Code == p[j-1].rep.Code && p[j].rep.State < p[j-1].rep.State)); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	for i := range p {
		e.emit(&p[i])
	}
	e.pend = p[:0]
}

// emit delivers one merged report, mirroring sim.Engine.emit. Residual
// reports skip the ledger: the residual engine's own ledger already
// attributed them.
func (e *refEngine) emit(p *pending) {
	e.stats.Reports++
	if e.led != nil && !p.resid {
		e.led.Report(p.rep.Code)
	}
	if e.h.Tracer != nil {
		e.h.Tracer.OnReport(p.rep.Offset, p.rep.State, p.rep.Code)
	}
	if e.OnReport != nil {
		e.OnReport(p.rep)
	}
}

// stepTelemetry runs the per-symbol hooks; called only when telemetryOn.
func (e *refEngine) stepTelemetry(b byte) {
	if e.h.Tracer != nil {
		e.h.Tracer.OnSymbol(e.offset, b)
	}
	if e.h.Frontier != nil {
		e.h.Frontier.Observe(e.frontierLenAll())
	}
}

// frontierLenAll is the combined enabled-frontier size: confirm plus
// residual (chain states are virtual and carry no per-state frontier).
func (e *refEngine) frontierLenAll() int64 {
	n := int64(len(e.frontier))
	if e.residual != nil {
		n += int64(e.residual.FrontierLen())
	}
	return n
}

// Step consumes one input symbol.
func (e *refEngine) Step(b byte) {
	e.stats.Symbols++
	if e.telemetryOn {
		e.stepTelemetry(b)
	}
	// Enabled accounting: chain states armed for this symbol are a pure
	// function of the matcher position before the byte; confirm states are
	// the frontier itself. (Chain heads are all-input starts — excluded,
	// as sim's indexed engine excludes them.)
	if e.matcher != nil {
		e.stats.Enabled += e.we[e.acState]
	}
	e.stats.Enabled += int64(len(e.frontier))
	for _, s := range e.frontier {
		if e.sets[e.css[s]].Contains(b) {
			e.activate(s)
		}
	}
	if e.matcher != nil {
		e.acState = e.matcher.StepFrom(e.acState, b, e.onAnchorFn)
		// Chain states that matched this byte: every (pattern, position)
		// whose prefix is a suffix of the input, read off the new state.
		e.stats.Active += e.wa[e.acState]
	}
	if e.residual != nil {
		e.residual.Step(b)
	}
	if len(e.pend) > 0 {
		e.flushPend()
	}
	// Swap frontiers and advance the generation, exactly as sim does.
	e.frontier, e.next = e.next, e.frontier[:0]
	e.gen++
	if e.gen < 2 { // wrapped: clear marks, keep gen >= 2 for EnableState
		for i := range e.mark {
			e.mark[i] = 0
		}
		e.gen = 2
		for _, s := range e.frontier {
			e.mark[s] = e.gen - 1
		}
	}
	e.offset++
}

// Run consumes the entire input and returns the accumulated statistics.
// It may be called repeatedly to continue the same logical stream.
func (e *refEngine) Run(input []byte) sim.Stats {
	e.scanChunk(input)
	e.FlushLedger()
	return e.Stats()
}

// RunChecked is Run under the attached hooks, through the shared chunk
// protocol (hooks.Set.Chunks) at guard.SitePrefilter with the combined
// confirm + residual frontier as the active set — exactly as sim chunks
// at sim.chunk. The governor's trip is sticky, so a tripped engine stays
// tripped at every later boundary. With no governor, progress tracker or
// checkpointer attached it is exactly Run.
func (e *refEngine) RunChecked(input []byte) (sim.Stats, error) {
	if !e.h.Chunked() {
		return e.Run(input), nil
	}
	err := e.h.Chunks(guard.SitePrefilter, input, e.scanChunk, e.FrontierLen, e.flushLedger)
	e.FlushLedger()
	return e.Stats(), err
}

// scanChunk steps every byte of chunk; like sim, the prefilter cannot
// fail mid-chunk.
func (e *refEngine) scanChunk(chunk []byte) error {
	for _, b := range chunk {
		e.Step(b)
	}
	return nil
}

// Stats returns the combined statistics since the last Reset — exactly the
// full NFA run's. Reports are counted once (residual reports flow through
// this engine's emit); Symbols are the stream's, not per-stage.
func (e *refEngine) Stats() sim.Stats {
	st := e.stats
	if e.residual != nil {
		rs := e.residual.Stats()
		st.Enabled += rs.Enabled
		st.Active += rs.Active
		st.CounterPulses += rs.CounterPulses
	}
	return st
}

// AnchorHits returns the number of anchor-literal occurrences since Reset.
func (e *refEngine) AnchorHits() int64 { return e.anchorHits }

// Reset clears all runtime state, mirroring sim.Engine.Reset.
func (e *refEngine) Reset() {
	e.FlushLedger()
	e.frontier = e.frontier[:0]
	e.next = e.next[:0]
	e.pend = e.pend[:0]
	e.gen++
	if e.gen < 2 {
		for i := range e.mark {
			e.mark[i] = 0
		}
		e.gen = 2
	}
	e.acState = 0
	e.offset = 0
	e.stats = sim.Stats{}
	e.anchorHits = 0
	e.ledMark = 0
	if e.residual != nil {
		e.residual.Reset()
	}
}

// SetOnReport sets the OnReport callback (nil detaches).
func (e *refEngine) SetOnReport(fn func(sim.Report)) { e.OnReport = fn }

// FrontierLen returns the combined enabled-frontier size.
func (e *refEngine) FrontierLen() int { return int(e.frontierLenAll()) }

// Attach installs h as the engine's hook bundle, replacing whatever was
// attached (the zero Set detaches everything). Only hooks that changed
// take their attach-time baseline: a new Ledger covers this engine's
// whole state space from this point of the stream onward; the residual
// engine receives a ledger of its own from col, remapped to its local
// numbering (commitLedgers commits both). Anchored components' scanned
// bytes are charged at flush points; anchor hits charge one work unit per
// literal byte (the chain work sim would have done).
//
// The Frontier histogram observes the combined frontier; the embedded
// residual engine gets none, which would double-count. The Tracer covers symbols, reports, and confirm/residual activations —
// chain-state activations are accounted in Stats but not traced (see the
// package comment). Governor, Progress and Checkpointer act only under
// RunChecked.
func (e *refEngine) Attach(h hooks.Set) {
	old := e.h
	e.h = h
	if h.Ledger != old.Ledger {
		e.attachLedger()
	}
	e.telemetryOn = h.Tracer != nil || h.Frontier != nil
}

// attachLedger resolves the attribution slots of the newly attached
// ledger and hands the residual engine its own (or detaches it).
func (e *refEngine) attachLedger() {
	l := e.h.Ledger
	e.led, e.ledMark = l, e.stats.Symbols
	var view hooks.Set
	if l != nil {
		e.anchorSlot = make([]int32, len(e.anchors))
		e.anchorCompSlots = e.anchorCompSlots[:0]
		seen := make(map[int32]bool, len(e.anchors))
		for i, an := range e.anchors {
			s := l.Slot(an.tail)
			e.anchorSlot[i] = s
			if !seen[s] {
				seen[s] = true
				e.anchorCompSlots = append(e.anchorCompSlots, s)
			}
		}
		slices.Sort(e.anchorCompSlots)
		if e.residual != nil {
			compOf := make([]int32, len(e.residualInv))
			for loc, g := range e.residualInv {
				compOf[loc] = l.Slot(g)
			}
			e.residLed = e.col.Ledger(compOf)
			view.Ledger = e.residLed
		}
	}
	if e.residual != nil {
		e.residual.Attach(view)
	}
}

// FlushLedger charges the attached ledger (if any) the bytes scanned
// since the last flush. Run and RunChecked flush at run end (and Reset
// before clearing); the checkpoint save calls it mid-stream.
func (e *refEngine) FlushLedger() {
	if e.led != nil {
		e.flushLedger()
	}
}

// flushLedger charges bytes scanned since the last flush to every anchored
// component, and nudges the residual engine to flush its own byte
// watermark (a zero-length Run flushes without consuming symbols).
func (e *refEngine) flushLedger() {
	if d := e.stats.Symbols - e.ledMark; d > 0 {
		for _, slot := range e.anchorCompSlots {
			e.led.AddBytes(slot, d)
		}
	}
	e.ledMark = e.stats.Symbols
	if e.residual != nil {
		e.residual.Run(nil)
	}
}

// SetOffset positions the engine at an absolute stream offset without
// touching any other state (see sim.Engine.SetOffset).
func (e *refEngine) SetOffset(off int64) {
	e.offset = off
	if e.residual != nil {
		e.residual.SetOffset(off)
	}
}

// EnableState arms a whole-automaton state for the next Step, routing
// residual-component states to the embedded residual engine.
func (e *refEngine) EnableState(id automata.StateID) {
	if loc, ok := e.residualID(id); ok {
		e.residual.EnableState(loc)
		return
	}
	prev := e.gen - 1
	if e.mark[id] == prev {
		return
	}
	e.mark[id] = prev
	e.frontier = append(e.frontier, id)
}

// residualID returns the residual engine's ID for a whole-automaton state
// of an unanchored component.
func (e *refEngine) residualID(id automata.StateID) (automata.StateID, bool) {
	if int(id) < len(e.residualLoc) && e.residualLoc[id] >= 0 {
		return automata.StateID(e.residualLoc[id]), true
	}
	return 0, false
}

// FrontierSnapshot returns the canonical continuation set: the sorted
// union of the confirm frontier and the residual frontier (whole-automaton
// IDs), plus one sentinel entry NumStates+acState encoding the matcher
// position. The sentinel sorts last, so snapshots from engines at the same
// stream position are equal exactly when frontier AND matcher state agree
// — the condition under which all future stats and reports coincide.
func (e *refEngine) FrontierSnapshot() []automata.StateID {
	f := append([]automata.StateID(nil), e.frontier...)
	if e.residual != nil {
		for _, loc := range e.residual.FrontierSnapshot() {
			f = append(f, e.residualInv[loc])
		}
	}
	slices.Sort(f)
	return append(f, automata.StateID(e.numStates)+automata.StateID(e.acState))
}

// RestoreState resets the engine and re-seeds it to continue the logical
// stream at s, decoding FrontierSnapshot's encoding: entries >= NumStates
// restore the matcher state, residual-component entries re-arm the
// residual engine, the rest the confirm frontier. Counter snapshots are
// forwarded to the residual engine (anchored components never hold
// counters), which rejects what it cannot hold. A frontier without
// exactly one sentinel, or with a sentinel or state this engine does not
// have, was captured elsewhere and is rejected before anything changes.
func (e *refEngine) RestoreState(s *sim.StreamState) error {
	nodes := 1 // the root, the only state of an absent matcher
	if e.matcher != nil {
		nodes = e.matcher.NumNodes()
	}
	sentinels := 0
	for _, id := range s.Frontier {
		if int(id) >= e.numStates+nodes {
			return fmt.Errorf("prefilter: RestoreState: entry %d outside the %d states and %d matcher nodes", id, e.numStates, nodes)
		}
		if int(id) >= e.numStates {
			sentinels++
		}
	}
	if sentinels != 1 {
		return fmt.Errorf("prefilter: RestoreState: frontier carries %d matcher sentinels, want 1", sentinels)
	}
	e.Reset()
	var rs sim.StreamState
	rs.Offset = s.Offset
	for _, id := range s.Frontier {
		if int(id) >= e.numStates {
			e.acState = int32(int(id) - e.numStates)
			continue
		}
		if loc, ok := e.residualID(id); ok {
			rs.Frontier = append(rs.Frontier, loc)
			continue
		}
		e.EnableState(id)
	}
	for _, c := range s.Counters {
		if loc, ok := e.residualID(c.ID); ok {
			rs.Counters = append(rs.Counters, sim.CounterSnapshot{ID: loc, Value: c.Value, Latched: c.Latched})
		}
	}
	e.offset = s.Offset
	if e.residual != nil {
		return e.residual.RestoreState(&rs)
	}
	return nil
}

// Speculative reports whether segments may be scanned speculatively: as
// for sim, only automata without counters.
func (e *refEngine) Speculative() bool { return e.a.NumCounters() == 0 }

// CaptureState snapshots the engine between Run calls in RestoreState's
// encoding: FrontierSnapshot (confirm + residual frontiers plus the
// matcher-state sentinel) and the residual engine's counter snapshots
// translated to whole-automaton IDs. The snapshot shares no storage with
// the engine, and restoring it into a fresh engine continues the stream
// with identical reports and stats.
func (e *refEngine) CaptureState() *sim.StreamState {
	s := &sim.StreamState{Offset: e.offset, Frontier: e.FrontierSnapshot()}
	if e.residual != nil {
		// residualInv is ascending in whole-automaton IDs, so the sorted
		// local counters translate to sorted global counters.
		for _, c := range e.residual.CaptureState().Counters {
			s.Counters = append(s.Counters, sim.CounterSnapshot{
				ID: e.residualInv[c.ID], Value: c.Value, Latched: c.Latched,
			})
		}
	}
	return s
}

// extractComponents rebuilds the sub-automaton of the components selected
// by keep, returning it with the original→local state-ID map (-1 for
// states left out) and its inverse (locals are assigned in ascending
// original order).
func extractComponents(a *automata.Automaton, compIdx []int32, keep func(int32) bool) (*automata.Automaton, []int32, []automata.StateID, error) {
	b := automata.NewBuilder()
	n := a.NumStates()
	newID := make([]int32, n)
	var inv []automata.StateID
	for i := 0; i < n; i++ {
		newID[i] = -1
		id := automata.StateID(i)
		if !keep(compIdx[i]) {
			continue
		}
		var nid automata.StateID
		if a.Kind(id) == automata.KindCounter {
			cfg, _ := a.CounterConfig(id)
			nid = b.AddCounter(cfg.Target, cfg.Mode)
		} else {
			nid = b.AddSTE(a.Class(id), a.Start(id))
		}
		if a.IsReport(id) {
			b.SetReport(nid, a.ReportCode(id))
		}
		newID[id] = int32(nid)
		inv = append(inv, id)
	}
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		if !keep(compIdx[i]) {
			continue
		}
		for _, t := range a.Succ(id) {
			b.AddEdge(automata.StateID(newID[id]), automata.StateID(newID[t]))
		}
	}
	res, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return res, newID, inv, nil
}

// commitLedgers commits the attached ledger and the residual's.
func (e *refEngine) commitLedgers() {
	e.led.Commit()
	if e.residLed != nil {
		e.residLed.Commit()
	}
}

// CompareWithReference steps New(a) and the reference over input a byte at
// a time, each with its own frontier histogram and ledger, and fails t
// after the first byte on which they differ in Stats, reports (order
// included), FrontierSnapshot, CaptureState, AnchorHits, committed ledger
// totals or sim.frontier histogram. Now and then the same random state is armed on
// both (EnableState), and at the middle of input each engine is restored
// from the other's CaptureState.
func CompareWithReference(t testing.TB, a *automata.Automaton, input []byte, seed int64) {
	t.Helper()
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReference(a)
	if err != nil {
		t.Fatal(err)
	}
	prov := attr.FromComponents(a, "c")
	ecol, rcol := attr.NewCollector(a, prov), attr.NewCollector(a, prov)
	eled, rled := ecol.Ledger(ecol.GlobalCompOf()), rcol.Ledger(rcol.GlobalCompOf())
	ereg, rreg := telemetry.NewRegistry(), telemetry.NewRegistry()
	r.col = rcol
	frontier := func(reg *telemetry.Registry) *telemetry.Histogram {
		return reg.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	}
	e.Attach(hooks.Set{Frontier: frontier(ereg), Ledger: eled})
	r.Attach(hooks.Set{Frontier: frontier(rreg), Ledger: rled})
	var got, want []sim.Report
	e.OnReport = func(x sim.Report) { got = append(got, x) }
	r.OnReport = func(x sim.Report) { want = append(want, x) }
	var stes []automata.StateID
	for id := range a.NumStates() {
		if a.Kind(automata.StateID(id)) == automata.KindSTE {
			stes = append(stes, automata.StateID(id))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i, b := range input {
		if i == len(input)/2 {
			es, rs := e.CaptureState(), r.CaptureState()
			if err := e.RestoreState(rs); err != nil {
				t.Fatalf("byte %d: restore: %v", i, err)
			}
			if err := r.RestoreState(es); err != nil {
				t.Fatalf("byte %d: reference restore: %v", i, err)
			}
		}
		if len(stes) > 0 && rng.Intn(16) == 0 {
			id := stes[rng.Intn(len(stes))]
			e.EnableState(id)
			r.EnableState(id)
		}
		e.Step(b)
		r.Step(b)
		e.Flush()
		r.FlushLedger()
		eled.Commit()
		r.commitLedgers()
		if err := compareEngines(e, r, got, want, ecol, rcol, ereg, rreg); err != nil {
			t.Fatalf("after byte %d (%q): %v", i, b, err)
		}
	}
}

func compareEngines(e *Engine, r *refEngine, got, want []sim.Report, ecol, rcol *attr.Collector, ereg, rreg *telemetry.Registry) error {
	if g, w := e.Stats(), r.Stats(); g != w {
		return fmt.Errorf("stats %+v, reference %+v", g, w)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("reports\n%v\nreference\n%v", got, want)
	}
	if g, w := e.FrontierSnapshot(), r.FrontierSnapshot(); !slices.Equal(g, w) {
		return fmt.Errorf("frontier %v, reference %v", g, w)
	}
	if g, w := e.CaptureState(), r.CaptureState(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("captured state %+v, reference %+v", g, w)
	}
	if g, w := e.AnchorHits(), r.AnchorHits(); g != w {
		return fmt.Errorf("anchor hits %d, reference %d", g, w)
	}
	if g, w := ecol.Totals(), rcol.Totals(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("ledger totals %+v, reference %+v", g, w)
	}
	if gs, ws := ereg.Snapshot(), rreg.Snapshot(); !reflect.DeepEqual(gs, ws) {
		return fmt.Errorf("registry %+v, reference %+v", gs, ws)
	}
	return nil
}
