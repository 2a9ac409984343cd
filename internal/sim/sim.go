// Package sim implements a VASim-equivalent execution engine for
// homogeneous automata: cycle-accurate active-set NFA interpretation with
// report capture and the dynamic profiling counters (active set, report
// rate) that the AutomataZoo paper's Table I and Figure 1 are built from.
//
// The engine follows the Micron-AP execution model:
//
//	per input symbol:
//	  enabled ∧ class-match  → active
//	  active ∧ reporting     → report(offset, code)
//	  active                 → enable STE successors (next symbol),
//	                           pulse counter successors (this symbol)
//	  counter at target      → fire (enable successors / report), then
//	                           roll over or latch
//
// All-input start states are never iterated: the list step takes the
// matching ones from a byte→starts index, the bitset step ORs in their row.
// On an empty list frontier, a byte no start matches costs the list step
// only its generation bump.
// The enabled frontier has two representations behind the one Step:
//
//   - a list deduplicated with generation marks: per-symbol cost is
//     O(frontier + matches), not O(states), which makes paper-scale ClamAV
//     (2.3M states, 33k always-on subgraphs) simulable; and
//   - a bitset over all states, stepped a 64-bit word at a time: active =
//     (enabled | all-input starts) & match[class(b)], reports from active &
//     reporting, successors of the set bits OR-ed into the next bitset
//     through the automaton's CSR edges.
//
// Every stream starts on the list. At each 64-symbol block boundary of the
// stream offset the engine enters the bitset when the block averaged
// bitsetEnter or more enabled states per frontier word (of at least
// bitsetMinWords), and leaves it below bitsetLeave. The bitset tables are
// built on first entry. Both steps read one successor layout, split once in
// New into STE and counter successors: the bitset propagates the STE CSR
// and pulses counters from a row of the states with counter successors;
// fired counters enable into whichever frontier is in use. Statistics,
// snapshots and hooks are identical in both; only within one offset does
// the bitset emit reports and OnActivate events in ascending state order,
// which no output depends on.
package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
)

// Report records one match: the automaton entered a reporting state (or a
// reporting counter fired) at the given input offset.
type Report struct {
	Offset int64 // 0-based index of the symbol that caused the report
	State  automata.StateID
	Code   int32
}

// Stats aggregates the dynamic profile of a run.
type Stats struct {
	// Symbols is the number of input symbols consumed.
	Symbols int64
	// Enabled is the summed size of the per-symbol enabled frontier,
	// excluding all-input start states (which are enabled by definition
	// and cost nothing in the indexed engine). Enabled/Symbols is the
	// CPU-work proxy for sequential engines.
	Enabled int64
	// Active is the summed count of states that matched per symbol,
	// including start states. Active/Symbols is the paper's "active set".
	Active int64
	// CounterPulses counts count-enable deliveries, coalesced to at most
	// one per counter per cycle; same-cycle chained counter-to-counter
	// fires are included.
	CounterPulses int64
	// Reports counts emitted reports.
	Reports int64
}

// Add returns the field-wise sum s + o: the statistics of two pieces of
// work (streams, segments, slices) taken together.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Symbols:       s.Symbols + o.Symbols,
		Enabled:       s.Enabled + o.Enabled,
		Active:        s.Active + o.Active,
		CounterPulses: s.CounterPulses + o.CounterPulses,
		Reports:       s.Reports + o.Reports,
	}
}

// EnabledAvg returns mean enabled-frontier size per symbol.
func (s Stats) EnabledAvg() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.Enabled) / float64(s.Symbols)
}

// ActiveAvg returns the mean number of matching states per symbol — the
// paper's "active set" column.
func (s Stats) ActiveAvg() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.Active) / float64(s.Symbols)
}

// ReportRate returns reports per input symbol.
func (s Stats) ReportRate() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.Reports) / float64(s.Symbols)
}

// The frontier switch (package doc), in enabled states per word per symbol
// over a block. Break-even is near one (File Carving 0.98× at 1.0, Entity
// Resolution 1.5× at 2.4); the gap stops flapping. Below 16 enabled states
// the bitset's fixed cost loses (a 65-state File Carving sub-automaton, 3.6
// enabled per symbol, ran 25 % slower), hence bitsetMinWords. Counter
// automata switch on the same thresholds: a counter is never enabled, so
// it adds nothing to the count.
const (
	blockLen       = 64
	bitsetEnter    = 2.0
	bitsetLeave    = 1.0
	bitsetMinWords = 8
)

// Engine executes one automaton over byte streams. It is reusable across
// runs (Reset) but not safe for concurrent use; run parallel streams with
// one Engine each (the frozen Automaton is shared and immutable).
type Engine struct {
	a    *automata.Automaton
	sets []charset.Set    // interned class storage
	css  []charset.Handle // per-state class handle

	// The successors, split once: state i enables the STEs
	// edges[off[i]:off[i+1]] (the automaton's own CSR when it has no
	// counters) and pulses the counters cedges[coff[i]:coff[i+1]] (empty
	// without counters). Each keeps the automaton's edge order.
	off, coff     []uint32
	edges, cedges []automata.StateID

	isReport []bool
	code     []int32

	startIdx    [256][]automata.StateID // all-input starts matching each byte
	startOfData []automata.StateID

	// List frontier. mark[i]==gen means state i is in the next frontier;
	// amark[i]==gen means state i already activated this cycle (a state can
	// be both an all-input start and a successor — it must act once).
	frontier []automata.StateID
	next     []automata.StateID
	mark     []uint32
	amark    []uint32
	gen      uint32

	// Bitset frontier, in use while dense. blockSyms and blockEnabled are
	// the statistics at the last block boundary; enterAt and leaveAt are
	// bitsetEnter and bitsetLeave, fields so that tests can pin a mode.
	dense            bool
	bf               *bitFrontier
	blockSyms        int64
	blockEnabled     int64
	enterAt, leaveAt float64

	// Counter runtime state, nil without counters. ctr is indexed by
	// state ID; counters lists the counter IDs ascending. pulsed is the
	// dense, deterministically ordered list of counters that received a
	// count-enable this cycle, and counter.pulsed dedupes deliveries (a
	// counter's count-enable input is a single wire: at most one increment
	// per counter per cycle, no matter how many predecessors pulse it or
	// chained counters fire into it) — see fireCounters.
	ctr      []counter
	counters []automata.StateID
	pulsed   []automata.StateID

	offset int64

	// OnReport, if set, is invoked for every report: the engine's one
	// report output. Count and rate statistics are always maintained.
	OnReport func(Report)

	stats Stats

	// h is the attached hook bundle (see Attach); the zero Set is a bare
	// engine. The hot loop tests only the single telemetryOn flag, so the
	// disabled path costs one predictable branch per symbol and per
	// activation and zero allocations (asserted by
	// TestNilTelemetryZeroAllocs); the individual nil guards run only once
	// some hook is attached. Spans, Governor, Progress, Ledger and
	// Checkpointer are deliberately outside telemetryOn: they are
	// touched per Run call or per chunk, never per symbol, so all-nil
	// RunChecked stays byte-for-byte the Run loop.
	h           hooks.Set
	led         *attr.Ledger // h.Ledger (see Attach)
	telemetryOn bool         // Tracer or Frontier attached
	ledMark     int64        // Symbols watermark of the last ledger byte flush
}

// counter is one counter element's configuration and runtime state.
type counter struct {
	cfg     automata.Counter
	val     uint32
	latched bool // ignores count-enables until Reset
	pulsed  bool // received its count-enable this cycle
	touched bool // val set since Reset: CaptureState lists it
}

// bitFrontier is the bitset frontier and the rows it is stepped with.
type bitFrontier struct {
	class     [256]uint16 // byte → class (charset.Classes)
	match     []uint64    // row k*words..: states whose class holds class k's bytes
	starts    []uint64    // all-input starts
	sodStarts []uint64    // starts plus start-of-data states, for offset 0
	report    []uint64    // reporting states
	pulse     []uint64    // states with counter successors; nil without counters
	off       []uint32    // Engine.off padded to whole words
	cur, next []uint64    // enabled now; next, all zero between steps
}

// New returns an engine for a. The automaton is analyzed once; subsequent
// runs reuse the prepared indexes.
func New(a *automata.Automaton) *Engine {
	n := a.NumStates()
	e := &Engine{
		a:        a,
		sets:     a.Table().Sets(),
		css:      make([]charset.Handle, n),
		isReport: make([]bool, n),
		code:     make([]int32, n),
		mark:     make([]uint32, n),
		amark:    make([]uint32, n),
		enterAt:  bitsetEnter,
		leaveAt:  bitsetLeave,
	}
	e.off, e.edges = a.CSR()
	if a.NumCounters() > 0 {
		e.ctr = make([]counter, n)
		e.off, e.edges, e.coff, e.cedges = splitSucc(a)
	}
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		e.css[id] = a.ClassHandle(id)
		e.isReport[id] = a.IsReport(id)
		e.code[id] = a.ReportCode(id)
		if a.Kind(id) == automata.KindCounter {
			e.ctr[id].cfg, _ = a.CounterConfig(id)
			e.counters = append(e.counters, id)
		}
	}
	for _, s := range a.Starts() {
		switch a.Start(s) {
		case automata.StartAllInput:
			cls := e.sets[e.css[s]]
			for c := 0; c < 256; c++ {
				if cls.Contains(byte(c)) {
					e.startIdx[c] = append(e.startIdx[c], s)
				}
			}
		case automata.StartOfData:
			e.startOfData = append(e.startOfData, s)
		}
	}
	e.Reset()
	return e
}

// splitSucc splits a's CSR into its STE successors and its counter
// successors.
func splitSucc(a *automata.Automaton) (off []uint32, edges []automata.StateID, coff []uint32, cedges []automata.StateID) {
	n := a.NumStates()
	off, coff = make([]uint32, n+1), make([]uint32, n+1)
	for i := range n {
		for _, t := range a.Succ(automata.StateID(i)) {
			if a.Kind(t) == automata.KindCounter {
				cedges = append(cedges, t)
			} else {
				edges = append(edges, t)
			}
		}
		off[i+1], coff[i+1] = uint32(len(edges)), uint32(len(cedges))
	}
	return off, edges, coff, cedges
}

// newBitFrontier builds the bitset tables of e's automaton: one match row
// per byte class, and the start, start-of-data, report and pulse rows.
func newBitFrontier(e *Engine) *bitFrontier {
	n := len(e.css)
	words := (n + 63) / 64
	f := &bitFrontier{
		starts:    make([]uint64, words),
		sodStarts: make([]uint64, words),
		report:    make([]uint64, words),
		off:       make([]uint32, words*64+1),
		cur:       make([]uint64, words),
		next:      make([]uint64, words),
	}
	for i := copy(f.off, e.off); i < len(f.off); i++ {
		f.off[i] = e.off[n]
	}
	if e.ctr != nil {
		f.pulse = make([]uint64, words)
	}
	seen := make([]bool, len(e.sets))
	var reps []byte
	f.class, reps = charset.Classes(func(yield func(charset.Set) bool) {
		for _, h := range e.css {
			if !seen[h] {
				seen[h] = true
				if !yield(e.sets[h]) {
					return
				}
			}
		}
	})
	f.match = make([]uint64, len(reps)*words)
	for i, h := range e.css {
		bit := uint64(1) << (i & 63)
		for k, b := range reps {
			if e.sets[h].Contains(b) {
				f.match[k*words+i>>6] |= bit
			}
		}
		if e.isReport[i] {
			f.report[i>>6] |= bit
		}
		if e.ctr != nil && e.coff[i+1] > e.coff[i] {
			f.pulse[i>>6] |= bit
		}
	}
	for _, s := range e.a.Starts() {
		bit := uint64(1) << (s & 63)
		if e.a.Start(s) == automata.StartAllInput {
			f.starts[s>>6] |= bit
		}
		f.sodStarts[s>>6] |= bit
	}
	return f
}

// Automaton returns the automaton the engine executes.
func (e *Engine) Automaton() *automata.Automaton { return e.a }

// SetOnReport sets the OnReport callback (nil detaches) — the method form
// required by the segment scanner's engine interface, identical to
// assigning the OnReport field.
func (e *Engine) SetOnReport(fn func(Report)) { e.OnReport = fn }

// FrontierLen returns the current enabled-frontier size (the states armed
// for the next Step), without the copy FrontierSnapshot makes.
func (e *Engine) FrontierLen() int {
	if !e.dense {
		return len(e.frontier)
	}
	n := 0
	for _, x := range e.bf.cur {
		n += bits.OnesCount64(x)
	}
	return n
}

// Attach installs h as the engine's hook bundle, replacing whatever was
// attached (the zero Set detaches everything). A new Ledger is charged
// from this point of the stream onward — bytes consumed before the attach
// (e.g. a segment-scan warmup) are not. Governor, Progress and
// Checkpointer act only under RunChecked; bare Run/Step calls stay
// ungoverned and silent.
func (e *Engine) Attach(h hooks.Set) {
	old := e.h
	e.h = h
	if h.Ledger != old.Ledger {
		// The hot loops go through a field of the attr type itself: the
		// ledger's per-activation methods inline only into packages that
		// import attr directly, not through hooks.Set.
		e.led = h.Ledger
		e.ledMark = e.stats.Symbols
	}
	e.telemetryOn = e.h.Tracer != nil || e.h.Frontier != nil
}

// FlushLedger charges the attached ledger (if any) the bytes scanned since
// the last flush, to every component this engine covers. Run and
// RunChecked flush at run end (and Reset before clearing); the checkpoint
// save calls it mid-stream so the committed totals cover every byte
// scanned so far.
func (e *Engine) FlushLedger() {
	if e.led == nil {
		return
	}
	if d := e.stats.Symbols - e.ledMark; d > 0 {
		e.led.AddBytesAll(d)
	}
	e.ledMark = e.stats.Symbols
}

// Reset clears all runtime state: the frontier, counters, latches, offset
// and statistics. The next symbol consumed is treated as the start of
// data, on the list frontier.
func (e *Engine) Reset() {
	e.FlushLedger() // don't lose bytes scanned via bare Step calls
	e.frontier = e.frontier[:0]
	e.next = e.next[:0]
	if e.dense {
		clear(e.bf.cur)
		e.dense = false
	}
	// One bump suffices for EnableState's mark[id] == gen-1 dedupe to stay
	// sound: marks are only ever written with the in-Step generation (or
	// gen-1 by EnableState itself), and Step bumps gen after writing, so
	// every stale mark is <= gen-2 here — a state enabled in the final
	// cycle of the previous run CAN be re-armed immediately after Reset
	// (pinned by TestEnableStateAfterReset).
	e.nextGen()
	for _, id := range e.counters {
		e.ctr[id] = counter{cfg: e.ctr[id].cfg}
	}
	e.pulsed = e.pulsed[:0]
	e.offset = 0
	e.stats = Stats{}
	e.ledMark = 0
	e.blockSyms, e.blockEnabled = 0, 0
}

// nextGen advances the generation, restarting it after uint32 wrap.
func (e *Engine) nextGen() {
	e.gen++
	if e.gen < 2 {
		e.wrapGen()
	}
}

// wrapGen restarts the generation after uint32 wrap: it clears every mark
// and sets gen to 2 (EnableState dedupes against gen-1, which must not
// collide with the cleared value 0). The live frontier is re-marked with
// gen-1: its states were marked with the pre-wrap generation, and without
// the re-mark re-arming a state already on it would append a duplicate,
// double-counted in Enabled (TestEnableStateDedupeAcrossGenerationWrap).
func (e *Engine) wrapGen() {
	clear(e.mark)
	clear(e.amark)
	e.gen = 2
	for _, s := range e.frontier {
		e.mark[s] = e.gen - 1
	}
}

// Stats returns the statistics accumulated since the last Reset.
func (e *Engine) Stats() Stats { return e.stats }

// Run consumes the entire input and returns the accumulated statistics.
// It may be called repeatedly to continue the same logical stream.
func (e *Engine) Run(input []byte) Stats {
	sp := e.h.Spans.Start("sim.run")
	e.scanChunk(input)
	e.FlushLedger()
	sp.End()
	return e.stats
}

// RunChecked is Run under the attached hooks: the input is consumed
// through the shared chunk protocol (hooks.Set.Chunks) at
// guard.SiteSimChunk, with the enabled frontier as the active set. On a
// budget trip the run stops between chunks and the partial statistics are
// returned with the *guard.TripError. With no governor, progress tracker
// or checkpointer attached it is exactly Run.
func (e *Engine) RunChecked(input []byte) (Stats, error) {
	if !e.h.Chunked() {
		return e.Run(input), nil
	}
	sp := e.h.Spans.Start("sim.run")
	err := e.h.Chunks(guard.SiteSimChunk, input, e.scanChunk, e.FrontierLen, e.FlushLedger)
	e.FlushLedger()
	sp.End()
	return e.stats, err
}

// scanChunk steps every byte of chunk; the sim engine has no way to fail
// mid-chunk.
func (e *Engine) scanChunk(chunk []byte) error {
	for _, b := range chunk {
		e.Step(b)
	}
	return nil
}

func (e *Engine) emit(id automata.StateID) {
	e.stats.Reports++
	if e.led != nil {
		e.led.Report(e.code[id])
	}
	if e.h.Tracer != nil {
		e.h.Tracer.OnReport(e.offset, id, e.code[id])
	}
	if e.OnReport != nil {
		e.OnReport(Report{Offset: e.offset, State: id, Code: e.code[id]})
	}
}

// enable puts id on the next-symbol frontier (deduplicated).
func (e *Engine) enable(id automata.StateID) {
	if e.mark[id] != e.gen {
		e.mark[id] = e.gen
		e.next = append(e.next, id)
	}
}

// activate processes a state that matched the current symbol. Activation is
// idempotent within a cycle.
func (e *Engine) activate(id automata.StateID) {
	if e.amark[id] == e.gen {
		return
	}
	e.amark[id] = e.gen
	e.stats.Active++
	if e.telemetryOn {
		e.activateTelemetry(id)
	}
	if e.led != nil {
		e.led.Activate(id)
	}
	if e.isReport[id] {
		e.emit(id)
	}
	for _, t := range e.edges[e.off[id]:e.off[id+1]] {
		e.enable(t)
	}
	if e.ctr != nil {
		e.pulseSucc(id)
	}
}

// stepTelemetry runs the per-symbol hooks; called only when telemetryOn.
// Kept out of Step so the disabled hot loop carries a single branch.
func (e *Engine) stepTelemetry(b byte) {
	if e.h.Tracer != nil {
		e.h.Tracer.OnSymbol(e.offset, b)
	}
	if e.h.Frontier != nil {
		e.h.Frontier.Observe(int64(e.FrontierLen()))
	}
}

// activateTelemetry runs the per-activation hooks; called only when
// telemetryOn.
func (e *Engine) activateTelemetry(id automata.StateID) {
	if e.h.Tracer != nil {
		e.h.Tracer.OnActivate(e.offset, id)
	}
}

// pulseSucc delivers a count-enable to each counter successor of id: at
// most one per counter per cycle, per the AP model.
func (e *Engine) pulseSucc(id automata.StateID) {
	for _, t := range e.cedges[e.coff[id]:e.coff[id+1]] {
		if !e.ctr[t].pulsed {
			e.ctr[t].pulsed = true
			e.pulsed = append(e.pulsed, t)
			e.stats.CounterPulses++
		}
	}
}

// fireCounters resolves end-of-cycle counter increments.
//
// Semantics (pinned by TestChainedCounter* and the difftest oracle): a
// counter's count-enable input is a single wire, so it receives at most one
// increment per cycle — STE pulses and same-cycle chained fires from other
// counters all coalesce into that one increment. Resolution seeds from the
// pulsed set in ascending element-ID order and cascades FIFO: a counter
// reaching its target fires (reports, enables STE successors for the next
// symbol, into whichever frontier Step is building) and delivers a
// same-cycle count-enable to its counter successors, which obey the
// one-increment rule, the latch, and their own thresholds.
// The coalescing rule makes the outcome independent of resolution order
// (and bounds the cascade: each counter is processed at most once per
// cycle); the sorted seed makes the report sequence canonical.
//
// The previous implementation iterated a Go map — counter-to-counter
// chains resolved in randomized map order, so multi-counter automata
// reported nondeterministically run-to-run — and applied chained
// increments as a raw counterVal[t]++, bypassing the latch and the target
// comparison of the chained-into counter.
func (e *Engine) fireCounters() {
	if len(e.pulsed) == 0 {
		return
	}
	slices.Sort(e.pulsed)
	for i := 0; i < len(e.pulsed); i++ {
		id := e.pulsed[i]
		c := &e.ctr[id]
		if c.latched {
			continue // a latched counter ignores count-enables until Reset
		}
		c.touched = true
		if c.val+1 < c.cfg.Target {
			c.val++
			continue
		}
		// Fire.
		if e.isReport[id] {
			e.emit(id)
		}
		for _, t := range e.edges[e.off[id]:e.off[id+1]] {
			if e.dense {
				e.bf.next[t>>6] |= 1 << (t & 63)
			} else {
				e.enable(t)
			}
		}
		e.pulseSucc(id)
		if c.cfg.Mode == automata.CountRollover {
			c.val = 0
		} else {
			c.latched = true
			c.val = c.cfg.Target
		}
	}
	for _, id := range e.pulsed {
		e.ctr[id].pulsed = false
	}
	e.pulsed = e.pulsed[:0]
}

// Step consumes one input symbol.
func (e *Engine) Step(b byte) {
	if e.dense {
		e.stepBits(b)
		return
	}
	e.stats.Symbols++
	if e.telemetryOn {
		e.stepTelemetry(b)
	}
	// An empty frontier with no start matching b enables nothing: the idle
	// symbol of a sparse stream (or of a prefilter's fully anchored one)
	// only moves the generation and the offset on.
	if len(e.frontier) == 0 && len(e.startIdx[b]) == 0 && e.offset != 0 {
		e.nextGen()
		e.advance()
		return
	}
	// Start-of-data states participate only on the first symbol; they are
	// part of the enabled frontier conceptually.
	if e.offset == 0 {
		for _, s := range e.startOfData {
			e.stats.Enabled++
			if e.sets[e.css[s]].Contains(b) {
				e.activate(s)
			}
		}
	}
	// All-input starts, via the byte index: only matching ones are touched.
	for _, s := range e.startIdx[b] {
		e.activate(s)
	}
	// Previously-enabled states.
	e.stats.Enabled += int64(len(e.frontier))
	for _, s := range e.frontier {
		if e.sets[e.css[s]].Contains(b) {
			e.activate(s)
		}
	}
	e.fireCounters()
	// Swap frontiers and advance the generation so next-cycle enables
	// re-mark from scratch.
	e.frontier, e.next = e.next, e.frontier[:0]
	e.nextGen()
	e.advance()
}

// advance moves to the next offset and, at a block boundary, chooses the
// frontier representation for the next block.
func (e *Engine) advance() {
	e.offset++
	if e.offset&(blockLen-1) == 0 {
		e.chooseFrontier()
	}
}

// chooseFrontier switches representation by the block's mean enabled
// states per frontier word (see bitsetEnter).
func (e *Engine) chooseFrontier() {
	syms := e.stats.Symbols - e.blockSyms
	words := max((len(e.css)+63)/64, bitsetMinWords)
	perWord := float64(e.stats.Enabled-e.blockEnabled) / float64(syms) / float64(words)
	e.blockSyms, e.blockEnabled = e.stats.Symbols, e.stats.Enabled
	switch {
	case !e.dense && perWord >= e.enterAt:
		e.enterBits()
	case e.dense && perWord < e.leaveAt:
		e.leaveBits()
	}
}

// enterBits moves the list frontier into the bitset.
func (e *Engine) enterBits() {
	if e.bf == nil {
		e.bf = newBitFrontier(e)
	}
	for _, s := range e.frontier {
		e.bf.cur[s>>6] |= 1 << (s & 63)
	}
	e.frontier = e.frontier[:0]
	e.dense = true
}

// leaveBits moves the bitset frontier onto the list. The bitset step
// writes no marks, so the marks of the list frontier that entered the
// bitset still read gen-1: a new generation retires them before the
// frontier is re-marked for EnableState's dedupe.
func (e *Engine) leaveBits() {
	e.dense = false
	e.nextGen()
	e.frontier = appendBits(e.frontier, e.bf.cur)
	for _, s := range e.frontier {
		e.mark[s] = e.gen - 1
	}
	clear(e.bf.cur)
}

// appendBits appends the states whose bits are set in words, ascending.
func appendBits(dst []automata.StateID, words []uint64) []automata.StateID {
	for w, x := range words {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, automata.StateID(w<<6|bits.TrailingZeros64(x)))
		}
	}
	return dst
}

// stepBits is Step on the bitset frontier, a word of 64 states at a time.
// Consumed words of cur are cleared, so after the swap next is all zero
// again.
func (e *Engine) stepBits(b byte) {
	e.stats.Symbols++
	if e.telemetryOn {
		e.stepTelemetry(b)
	}
	f := e.bf
	cur, next := f.cur, f.next
	words := len(cur)
	k := int(f.class[b]) * words
	match := f.match[k : k+words]
	starts := f.starts
	if e.offset == 0 {
		starts = f.sodStarts
		e.stats.Enabled += int64(len(e.startOfData))
	}
	starts, report, next := starts[:words], f.report[:words], next[:words]
	if f.pulse != nil {
		e.pulseBits(cur, starts, match)
	}
	edges := e.edges
	hooked := e.telemetryOn || e.led != nil
	enabled, active := 0, 0
	for w, x := range cur {
		enabled += bits.OnesCount64(x)
		act := (x | starts[w]) & match[w]
		cur[w] = 0
		if act == 0 {
			continue
		}
		active += bits.OnesCount64(act)
		if hooked {
			e.activateWord(w, act)
		} else {
			for r := act & report[w]; r != 0; r &= r - 1 {
				e.emit(automata.StateID(w<<6 | bits.TrailingZeros64(r)))
			}
		}
		off := (*[65]uint32)(f.off[w<<6 : w<<6+65]) // no bounds checks below
		for ; act != 0; act &= act - 1 {
			i := bits.TrailingZeros64(act) & 63
			for _, t := range edges[off[i]:off[i+1]] {
				next[t>>6] |= 1 << (t & 63)
			}
		}
	}
	e.stats.Enabled += int64(enabled)
	e.stats.Active += int64(active)
	e.fireCounters()
	f.cur, f.next = next, cur
	e.advance()
}

// pulseBits delivers the count-enables of this symbol's active states
// that have counter successors. It is a pass of its own, taken only with
// counters, so that the step of a counter-free automaton pays nothing for
// them.
func (e *Engine) pulseBits(cur, starts, match []uint64) {
	for w, p := range e.bf.pulse {
		for p &= (cur[w] | starts[w]) & match[w]; p != 0; p &= p - 1 {
			e.pulseSucc(automata.StateID(w<<6 | bits.TrailingZeros64(p)))
		}
	}
}

// activateWord runs the per-activation hooks and reports of the active
// states in word w, ascending; the bitset step calls it only when some
// hook is attached.
func (e *Engine) activateWord(w int, act uint64) {
	for ; act != 0; act &= act - 1 {
		id := automata.StateID(w<<6 | bits.TrailingZeros64(act))
		if e.telemetryOn {
			e.activateTelemetry(id)
		}
		if e.led != nil {
			e.led.Activate(id)
		}
		if e.isReport[id] {
			e.emit(id)
		}
	}
}

// EnableState places id on the frontier for the NEXT Step call, as if an
// active predecessor had enabled it. This is the hook context-sensitive
// rule engines use to arm a secondary automaton when a trigger pattern
// reports (the paper's §XI future-work direction). Call it between Step
// calls (or from OnReport of another engine); duplicates are coalesced.
func (e *Engine) EnableState(id automata.StateID) {
	if e.dense {
		e.bf.cur[id>>6] |= 1 << (id & 63)
		return
	}
	// The upcoming frontier was marked with the previous generation (it
	// was built as "next" during the last Step). gen is kept >= 2, so
	// gen-1 never collides with the cleared-mark value 0.
	prev := e.gen - 1
	if e.mark[id] == prev {
		return
	}
	e.mark[id] = prev
	e.frontier = append(e.frontier, id)
}

// CounterSnapshot is one counter's runtime value inside a StreamState.
type CounterSnapshot struct {
	ID      automata.StateID
	Value   uint32
	Latched bool
}

// StreamState is a portable snapshot of an engine's mid-stream
// continuation point: the absolute input offset of the next symbol, the
// enabled frontier for that symbol (sorted, excluding all-input start
// states — those re-arm from the byte index every symbol and carry no
// stream state), and the live counter values/latches. Two engines at the
// same StreamState produce identical reports and identical per-symbol
// statistics on the same remaining input; this is the handoff contract
// the segment-parallel scanner (internal/segment) stitches on.
type StreamState struct {
	Offset   int64
	Frontier []automata.StateID
	Counters []CounterSnapshot
}

// FrontierSnapshot returns a sorted copy of the frontier enabled for the
// next symbol. The frontier list is deduplicated (see EnableState), so
// the snapshot is a canonical set representation: two engines at the same
// stream position return equal snapshots regardless of the order their
// frontiers were built in.
func (e *Engine) FrontierSnapshot() []automata.StateID {
	if e.dense {
		return appendBits(nil, e.bf.cur)
	}
	f := append([]automata.StateID(nil), e.frontier...)
	slices.Sort(f)
	return f
}

// CaptureState snapshots the engine's continuation state between Step
// calls. The snapshot shares nothing with the engine and stays valid
// across Reset/RestoreState.
func (e *Engine) CaptureState() *StreamState {
	s := &StreamState{Offset: e.offset, Frontier: e.FrontierSnapshot()}
	for _, id := range e.counters {
		if c := e.ctr[id]; c.touched {
			s.Counters = append(s.Counters, CounterSnapshot{ID: id, Value: c.val, Latched: c.latched})
		}
	}
	return s
}

// RestoreState resets the engine and re-seeds it to continue the logical
// stream at s: the frontier is re-armed, counter values and latches are
// reinstated, and the next Step consumes the symbol at s.Offset (reports
// carry absolute offsets; start-of-data states fire only when s.Offset is
// 0). Per-stream accounting restarts: Stats cover only the work after the
// restore, exactly like Reset — callers stitching a stream from several
// engines sum the per-piece stats themselves. A snapshot naming a state
// this automaton does not have (or a counter value for a non-counter) was
// captured elsewhere and is rejected before anything changes.
func (e *Engine) RestoreState(s *StreamState) error {
	for _, id := range s.Frontier {
		if int(id) >= len(e.mark) {
			return fmt.Errorf("sim: RestoreState: state %d outside the automaton's %d states", id, len(e.mark))
		}
	}
	for _, c := range s.Counters {
		if int(c.ID) >= len(e.mark) || e.a.Kind(c.ID) != automata.KindCounter {
			return fmt.Errorf("sim: RestoreState: state %d is not a counter", c.ID)
		}
	}
	e.Reset()
	for _, id := range s.Frontier {
		e.EnableState(id)
	}
	for _, c := range s.Counters {
		e.ctr[c.ID].val = c.Value
		e.ctr[c.ID].latched = c.Latched
		e.ctr[c.ID].touched = true
	}
	e.offset = s.Offset
	return nil
}

// Speculative reports whether a segment of this engine's stream may be
// scanned by a second engine from a warmup frontier and committed on
// frontier equality (internal/segment). Counter values do not converge
// like frontiers, so counter automata cascade on one engine instead.
func (e *Engine) Speculative() bool { return e.a.NumCounters() == 0 }

// SetOffset positions the engine at an absolute stream offset without
// touching any other state — the segment-parallel scanner uses it to give
// a speculative engine correct report offsets (and correct start-of-data
// suppression: only offset 0 arms StartOfData states) before it scans a
// mid-stream slice. Call it between Step calls.
func (e *Engine) SetOffset(off int64) { e.offset = off }
