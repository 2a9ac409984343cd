// Package prefilter implements two-stage scanning: extract each pattern's
// mandatory literal prefix ("anchor"), match all anchors simultaneously
// with one Aho–Corasick pass, and drive the rest of the automaton only
// from anchor hits. This is the architecture production engines
// (Hyperscan's literal factoring) use to make large literal-heavy rule
// sets — ClamAV, YARA — cheap on CPUs, and it is exact: an anchor is the
// unique entry path of its component, so enabling the component at anchor
// hits reproduces precisely the matches of full NFA interpretation.
//
// The second stage is one sim.Engine over the whole automaton with the
// anchored components' chain heads no longer started
// (automata.Automaton.WithoutStarts), so state IDs are the automaton's
// everywhere. An anchor hit arms the chain tail's successors in it
// (EnableState); components without a usable anchor (head classes that are
// not single bytes, multiple start states, counters, anchors shorter than
// MinAnchor) keep their starts and run in it as they would alone.
//
// Engine mirrors sim.Engine's execution contract so the partition, segment,
// and stats layers can drive either engine through one interface:
//
//   - Stats are field-for-field the full NFA run's. Chain-state work that
//     the prefilter never performs is reconstructed exactly from the
//     matcher position via acmatch.PrefixWeights (chain states active and
//     enabled per symbol are pure functions of the Aho–Corasick state).
//   - Reports carry the same offsets, codes, and state IDs as sim, and
//     within one offset are delivered in the canonical (offset, code,
//     state) order — anchor-tail reports and the sim engine's are merged
//     per symbol.
//   - OnReport behaves exactly as on sim.Engine; RunChecked performs the
//     same ~4 KiB cooperative budget checks at guard.SitePrefilter.
//   - FrontierSnapshot/RestoreState make mid-stream handoff exact: the
//     snapshot is the sim engine's frontier plus one sentinel entry >=
//     NumStates encoding the Aho–Corasick state, so the segment scanner's
//     speculation stitch validates the matcher position too.
//
// One observability difference from sim remains: chain-state activations
// are accounted in Stats but not traced individually (the prefilter never
// visits them), so OnActivate traces cover every other state only.
package prefilter

import (
	"fmt"

	"automatazoo/internal/acmatch"
	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/sim"
)

// MinAnchor is the minimum literal-prefix length worth prefiltering; below
// this, anchor hits are so frequent the indirection costs more than it
// saves.
const MinAnchor = 3

// anchor describes one accelerated component.
type anchor struct {
	literal []byte
	// tail is the last state of the anchor chain; on an anchor hit its
	// successors are enabled for the following symbol. The tail itself may
	// report (patterns equal to their anchor).
	tail automata.StateID
}

// Engine is the two-stage scanner over one automaton, execution-contract
// compatible with sim.Engine. Reusable across runs (Reset) but not safe
// for concurrent use.
type Engine struct {
	a       *automata.Automaton
	matcher *acmatch.Matcher // nil when no component is anchored
	anchors []anchor
	wa, we  []int64 // per-matcher-node chain active/enabled weights

	// nfa steps every state the matcher does not stand for: the anchored
	// components past their chains, armed by anchor hits, and the
	// unanchored components, started as usual.
	nfa *sim.Engine

	numStates  int
	anchored   int
	unanchored int

	acState int32
	offset  int64

	// OnReport is the report output, exactly sim.Engine's.
	OnReport func(sim.Report)

	stats      sim.Stats // the chain work and anchor-tail reports; Stats() adds nfa's
	anchorHits int64
	pend       []sim.Report // this symbol's reports, awaiting the canonical merge

	onAnchorFn func(int) // bound once so the hot loop never allocates

	// h is the attached hook bundle (see Attach). The Tracer, the Ledger
	// and the Frontier histogram are nfa's.
	h hooks.Set
	// led is h.Ledger, held as a field of the attr type so its hot-path
	// methods inline (see sim.Engine.Attach).
	led        *attr.Ledger
	anchorSlot []int32 // per-anchor attribution slot (when led != nil)
}

// New analyzes a and prepares the engine.
func New(a *automata.Automaton) (*Engine, error) {
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

	// Components containing counter elements have no anchor: the matcher
	// cannot stand in for a counter's state.
	hasCounter := make([]bool, nComp)
	for i := 0; i < a.NumStates(); i++ {
		if a.Kind(automata.StateID(i)) == automata.KindCounter {
			hasCounter[compIdx[i]] = true
		}
	}

	e := &Engine{a: a, numStates: a.NumStates()}
	var literals [][]byte
	var heads []automata.StateID
	for c := 0; c < nComp; c++ {
		if hasCounter[c] {
			e.unanchored++
			continue
		}
		lit, tail, ok := extractAnchor(a, starts[c], pred)
		if ok {
			e.anchors = append(e.anchors, anchor{literal: lit, tail: tail})
			literals = append(literals, lit)
			heads = append(heads, starts[c][0])
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
	e.nfa = sim.New(a.WithoutStarts(heads))
	e.nfa.OnReport = e.pendReport
	e.onAnchorFn = e.onAnchor
	return e, nil
}

// Automaton returns the automaton the engine executes.
func (e *Engine) Automaton() *automata.Automaton { return e.a }

// Anchored and Unanchored report how many components each strategy covers.
func (e *Engine) Anchored() int   { return e.anchored }
func (e *Engine) Unanchored() int { return e.unanchored }

// pendReport buffers one report into the current symbol's merge buffer.
func (e *Engine) pendReport(r sim.Report) { e.pend = append(e.pend, r) }

// onAnchor handles one anchor hit at the current offset: the chain tail is
// active, so emit its report (if any) and enable its successors for the
// next symbol.
func (e *Engine) onAnchor(pat int) {
	an := e.anchors[pat]
	e.anchorHits++
	if e.led != nil {
		e.led.AddWork(e.anchorSlot[pat], int64(len(an.literal)))
	}
	if e.a.IsReport(an.tail) {
		// Counted, charged and traced as sim.Engine's emit does; delivered
		// by the merge.
		code := e.a.ReportCode(an.tail)
		e.stats.Reports++
		if e.led != nil {
			e.led.Report(code)
		}
		if e.h.Tracer != nil {
			e.h.Tracer.OnReport(e.offset, an.tail, code)
		}
		e.pendReport(sim.Report{Offset: e.offset, State: an.tail, Code: code})
	}
	for _, t := range e.a.Succ(an.tail) {
		e.nfa.EnableState(t)
	}
}

// flushPend sorts the symbol's buffered reports into canonical (code,
// state) order — all offsets are equal — and delivers them. A manual
// insertion sort keeps the disabled path allocation-free (sort.Slice's
// closure would allocate every symbol).
func (e *Engine) flushPend() {
	p := e.pend
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && (p[j].Code < p[j-1].Code ||
			(p[j].Code == p[j-1].Code && p[j].State < p[j-1].State)); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	if e.OnReport != nil {
		for _, r := range p {
			e.OnReport(r)
		}
	}
	e.pend = p[:0]
}

// Step consumes one input symbol.
func (e *Engine) Step(b byte) {
	// Enabled accounting: chain states armed for this symbol are a pure
	// function of the matcher position before the byte. (Chain heads are
	// all-input starts — excluded, as sim's indexed engine excludes them.)
	if e.matcher != nil {
		e.stats.Enabled += e.we[e.acState]
	}
	// nfa steps first: the anchor hits below arm its next symbol.
	e.nfa.Step(b)
	if e.matcher != nil {
		e.acState = e.matcher.StepFrom(e.acState, b, e.onAnchorFn)
		// Chain states that matched this byte: every (pattern, position)
		// whose prefix is a suffix of the input, read off the new state.
		e.stats.Active += e.wa[e.acState]
	}
	if len(e.pend) > 0 {
		e.flushPend()
	}
	e.offset++
}

// Run consumes the entire input and returns the accumulated statistics.
// It may be called repeatedly to continue the same logical stream.
func (e *Engine) Run(input []byte) sim.Stats {
	e.scanChunk(input)
	e.Flush()
	return e.Stats()
}

// RunChecked is Run under the attached hooks, through the shared chunk
// protocol (hooks.Set.Chunks) at guard.SitePrefilter with nfa's frontier
// as the active set — exactly as sim chunks at sim.chunk. The governor's
// trip is sticky, so a tripped engine stays tripped at every later
// boundary. With no governor, progress tracker or checkpointer attached
// it is exactly Run.
func (e *Engine) RunChecked(input []byte) (sim.Stats, error) {
	if !e.h.Chunked() {
		return e.Run(input), nil
	}
	err := e.h.Chunks(guard.SitePrefilter, input, e.scanChunk, e.FrontierLen, e.Flush)
	e.Flush()
	return e.Stats(), err
}

// scanChunk steps every byte of chunk; like sim, the prefilter cannot
// fail mid-chunk.
func (e *Engine) scanChunk(chunk []byte) error {
	for _, b := range chunk {
		e.Step(b)
	}
	return nil
}

// Stats returns the combined statistics since the last Reset — exactly the
// full NFA run's.
func (e *Engine) Stats() sim.Stats { return e.nfa.Stats().Add(e.stats) }

// AnchorHits returns the number of anchor-literal occurrences since Reset.
func (e *Engine) AnchorHits() int64 { return e.anchorHits }

// ResidualWork returns nfa's enabled-frontier work since Reset: the cost
// the matcher did NOT save.
func (e *Engine) ResidualWork() int64 { return e.nfa.Stats().Enabled }

// Reset clears all runtime state, mirroring sim.Engine.Reset.
func (e *Engine) Reset() {
	e.nfa.Reset()
	e.pend = e.pend[:0]
	e.acState = 0
	e.offset = 0
	e.stats = sim.Stats{}
	e.anchorHits = 0
}

// SetOnReport sets the OnReport callback (nil detaches).
func (e *Engine) SetOnReport(fn func(sim.Report)) { e.OnReport = fn }

// FrontierLen returns nfa's enabled-frontier size (chain states are
// virtual and carry no per-state frontier).
func (e *Engine) FrontierLen() int { return e.nfa.FrontierLen() }

// Attach installs h as the engine's hook bundle, replacing whatever was
// attached (the zero Set detaches everything). Only hooks that changed
// take their attach-time baseline: a new Ledger is nfa's too, and covers
// the whole state space from this point of the stream onward — nfa
// charges every component's scanned bytes, activations and reports, and
// anchor hits charge one work unit per literal byte (the chain work sim
// would have done).
//
// The Tracer is nfa's too: it covers symbols, reports, and every
// activation but the chain states' — those are accounted in Stats but not
// traced (see the package comment). So is the Frontier histogram: nfa
// steps once per symbol, before the anchor hits of the symbol arm it, so
// the size it batches is the frontier this engine's FrontierLen reports
// before the step. Governor, Progress and Checkpointer act only under
// RunChecked.
func (e *Engine) Attach(h hooks.Set) {
	old := e.h
	e.h = h
	if h.Ledger != old.Ledger {
		e.led = h.Ledger
		if e.led != nil {
			e.anchorSlot = make([]int32, len(e.anchors))
			for i, an := range e.anchors {
				e.anchorSlot[i] = e.led.Slot(an.tail)
			}
		}
	}
	e.nfa.Attach(hooks.Set{Frontier: h.Frontier, Tracer: h.Tracer, Ledger: h.Ledger})
}

// Flush hands nfa's batched bytes and frontier sizes to the ledger and
// the histogram (see sim.Engine.Flush).
func (e *Engine) Flush() { e.nfa.Flush() }

// SetOffset positions the engine at an absolute stream offset without
// touching any other state (see sim.Engine.SetOffset).
func (e *Engine) SetOffset(off int64) {
	e.offset = off
	e.nfa.SetOffset(off)
}

// EnableState arms a state for the next Step.
func (e *Engine) EnableState(id automata.StateID) { e.nfa.EnableState(id) }

// FrontierSnapshot returns the canonical continuation set: nfa's sorted
// frontier plus one sentinel entry NumStates+acState encoding the matcher
// position. The sentinel sorts last, so snapshots from engines at the same
// stream position are equal exactly when frontier AND matcher state agree
// — the condition under which all future stats and reports coincide.
func (e *Engine) FrontierSnapshot() []automata.StateID {
	return append(e.nfa.FrontierSnapshot(), e.sentinel())
}

// sentinel is the frontier entry encoding the matcher position.
func (e *Engine) sentinel() automata.StateID {
	return automata.StateID(e.numStates) + automata.StateID(e.acState)
}

// RestoreState resets the engine and re-seeds it to continue the logical
// stream at s, decoding FrontierSnapshot's encoding: the entry >=
// NumStates restores the matcher state, the rest and the counters go to
// nfa. A snapshot without exactly one sentinel, with a sentinel or state
// this engine does not have, or with a counter value for a state that is
// not a counter, was captured elsewhere and is rejected before anything
// changes.
func (e *Engine) RestoreState(s *sim.StreamState) error {
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
	for _, c := range s.Counters {
		if int(c.ID) >= e.numStates || e.a.Kind(c.ID) != automata.KindCounter {
			return fmt.Errorf("prefilter: RestoreState: state %d is not a counter", c.ID)
		}
	}
	e.Reset()
	rs := sim.StreamState{Offset: s.Offset, Counters: s.Counters}
	for _, id := range s.Frontier {
		if int(id) >= e.numStates {
			e.acState = int32(int(id) - e.numStates)
		} else {
			rs.Frontier = append(rs.Frontier, id)
		}
	}
	e.offset = s.Offset
	return e.nfa.RestoreState(&rs)
}

// Speculative reports whether segments may be scanned speculatively: as
// for sim, only automata without counters.
func (e *Engine) Speculative() bool { return e.a.NumCounters() == 0 }

// CaptureState snapshots the engine between Run calls in RestoreState's
// encoding: FrontierSnapshot (nfa's frontier plus the matcher-state
// sentinel) and nfa's counter snapshots. The snapshot shares no storage
// with the engine, and restoring it into a fresh engine continues the
// stream with identical reports and stats.
func (e *Engine) CaptureState() *sim.StreamState {
	s := e.nfa.CaptureState()
	s.Frontier = append(s.Frontier, e.sentinel())
	return s
}

// extractAnchor finds the component's literal prefix: the component must
// have exactly one all-input start state, and the chain from it must be
// singleton-class states with out-degree 1 and no other entries (in-degree
// 1, no start flags, no incoming loops) for at least MinAnchor states.
// The anchor stops growing at the first state that reports, branches, has
// a non-singleton class, or has extra predecessors.
func extractAnchor(a *automata.Automaton, starts []automata.StateID, pred [][]automata.StateID) ([]byte, automata.StateID, bool) {
	if len(starts) != 1 || a.Start(starts[0]) != automata.StartAllInput {
		return nil, 0, false
	}
	cur := starts[0]
	if len(pred[cur]) != 0 {
		return nil, 0, false // re-enterable head: not a pure prefix
	}
	var lit []byte
	var tail automata.StateID
	for {
		cls := a.Class(cur)
		if cls.Count() != 1 || a.Kind(cur) != automata.KindSTE {
			break // cur is NOT part of the literal
		}
		lit = append(lit, cls.Bytes()[0])
		tail = cur
		if a.IsReport(cur) {
			// The anchor itself completes a match; stop here so the hit
			// can emit the report.
			break
		}
		succ := a.Succ(cur)
		if len(succ) != 1 {
			break
		}
		nxt := succ[0]
		if nxt == cur || len(pred[nxt]) != 1 || a.Start(nxt) != automata.StartNone {
			break
		}
		cur = nxt
	}
	return anchorResult(lit, tail)
}

func anchorResult(lit []byte, tail automata.StateID) ([]byte, automata.StateID, bool) {
	if len(lit) < MinAnchor {
		return nil, 0, false
	}
	return lit, tail, true
}
