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
// Two optimizations make paper-scale benchmarks (ClamAV: 2.3M states, 33k
// always-on subgraphs) simulable without changing semantics:
//
//   - all-input start states are never iterated; a 256-entry byte→starts
//     index yields exactly the matching ones per symbol, and
//   - the enabled frontier is a dense list deduplicated with generation
//     marks, so per-symbol cost is O(frontier + matches), not O(states).
package sim

import (
	"fmt"
	"slices"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/telemetry"
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

// Engine executes one automaton over byte streams. It is reusable across
// runs (Reset) but not safe for concurrent use; run parallel streams with
// one Engine each (the frozen Automaton is shared and immutable).
type Engine struct {
	a    *automata.Automaton
	sets []charset.Set    // interned class storage
	css  []charset.Handle // per-state class handle
	succ [][]automata.StateID

	isCounter []bool
	isReport  []bool
	code      []int32

	startIdx    [256][]automata.StateID // all-input starts matching each byte
	startOfData []automata.StateID

	// Frontier state. mark[i]==gen means state i is in the next frontier;
	// amark[i]==gen means state i already activated this cycle (a state can
	// be both an all-input start and a successor — it must act once).
	frontier []automata.StateID
	next     []automata.StateID
	mark     []uint32
	amark    []uint32
	gen      uint32

	// Counter runtime state. pulsed is the dense, deterministically
	// ordered list of counters that received a count-enable this cycle;
	// pulseMark[id] dedupes deliveries (a counter's count-enable input is
	// a single wire: at most one increment per counter per cycle, no
	// matter how many predecessors pulse it or chained counters fire into
	// it). A map here would make multi-counter resolution follow Go's
	// randomized iteration order — see fireCounters.
	counterVal map[automata.StateID]uint32
	counterCfg map[automata.StateID]automata.Counter
	pulsed     []automata.StateID
	pulseMark  []bool // allocated only when the automaton has counters
	latched    map[automata.StateID]bool

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
	// some hook is attached. Spans, Governor, Progress, Recorder, Ledger
	// and Checkpointer are deliberately outside telemetryOn: they are
	// touched per Run call or per chunk, never per symbol, so all-nil
	// RunChecked stays byte-for-byte the Run loop.
	h            hooks.Set
	led          *attr.Ledger // h.Ledger (see Attach)
	telemetryOn  bool         // Tracer or frontierHist attached
	frontierHist *telemetry.Histogram
	published    Stats // portion of stats already flushed to h.Registry
	ledMark      int64 // Symbols watermark of the last ledger byte flush
}

// New returns an engine for a. The automaton is analyzed once; subsequent
// runs reuse the prepared indexes.
func New(a *automata.Automaton) *Engine {
	n := a.NumStates()
	e := &Engine{
		a:          a,
		sets:       a.Table().Sets(),
		css:        make([]charset.Handle, n),
		succ:       make([][]automata.StateID, n),
		isCounter:  make([]bool, n),
		isReport:   make([]bool, n),
		code:       make([]int32, n),
		mark:       make([]uint32, n),
		amark:      make([]uint32, n),
		counterVal: map[automata.StateID]uint32{},
		counterCfg: map[automata.StateID]automata.Counter{},
		latched:    map[automata.StateID]bool{},
	}
	if a.NumCounters() > 0 {
		e.pulseMark = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		e.css[id] = a.ClassHandle(id)
		e.succ[id] = a.Succ(id)
		e.isReport[id] = a.IsReport(id)
		e.code[id] = a.ReportCode(id)
		if a.Kind(id) == automata.KindCounter {
			e.isCounter[id] = true
			cfg, _ := a.CounterConfig(id)
			e.counterCfg[id] = cfg
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

// Automaton returns the automaton the engine executes.
func (e *Engine) Automaton() *automata.Automaton { return e.a }

// SetOnReport sets the OnReport callback (nil detaches) — the method form
// required by the segment scanner's engine interface, identical to
// assigning the OnReport field.
func (e *Engine) SetOnReport(fn func(Report)) { e.OnReport = fn }

// FrontierLen returns the current enabled-frontier size (the states armed
// for the next Step), without the copy FrontierSnapshot makes.
func (e *Engine) FrontierLen() int { return len(e.frontier) }

// Attach installs h as the engine's hook bundle, replacing whatever was
// attached (the zero Set detaches everything). Only hooks that changed
// take their attach-time baseline: a new Registry starts publishing from
// the current statistics (and owns the sim.frontier histogram); a new
// Ledger is charged from this point of the stream onward — bytes consumed
// before the attach (e.g. a segment-scan warmup) are not. Governor,
// Progress, Recorder and Checkpointer act only under RunChecked; bare
// Run/Step calls stay ungoverned and silent.
func (e *Engine) Attach(h hooks.Set) {
	old := e.h
	e.h = h
	if h.Registry != old.Registry {
		e.frontierHist = nil
		if h.Registry != nil {
			e.frontierHist = h.Registry.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
			e.published = e.stats
		}
	}
	if h.Ledger != old.Ledger {
		// The hot loops go through a field of the attr type itself: the
		// ledger's per-activation methods inline only into packages that
		// import attr directly, not through hooks.Set.
		e.led = h.Ledger
		e.ledMark = e.stats.Symbols
	}
	e.telemetryOn = e.h.Tracer != nil || e.frontierHist != nil
}

// FlushTelemetry publishes statistics and ledger bytes accumulated since
// the last flush to the attached registry and ledger. Run and RunChecked
// flush on their own at run end (and Reset before clearing); the
// checkpoint saver calls this mid-stream so a snapshot of the
// registry/collector reflects every byte scanned so far.
func (e *Engine) FlushTelemetry() {
	if e.h.Registry != nil {
		e.flushStats()
	}
	if e.led != nil {
		e.flushLedger()
	}
}

// flushLedger charges bytes scanned since the last flush to every
// component this engine covers.
func (e *Engine) flushLedger() {
	if d := e.stats.Symbols - e.ledMark; d > 0 {
		e.led.AddBytesAll(d)
	}
	e.ledMark = e.stats.Symbols
}

// flushStats publishes stats accumulated since the last flush to the
// attached registry.
func (e *Engine) flushStats() {
	d := e.h.Registry
	if d == nil {
		return
	}
	delta := Stats{
		Symbols:       e.stats.Symbols - e.published.Symbols,
		Enabled:       e.stats.Enabled - e.published.Enabled,
		Active:        e.stats.Active - e.published.Active,
		CounterPulses: e.stats.CounterPulses - e.published.CounterPulses,
		Reports:       e.stats.Reports - e.published.Reports,
	}
	d.Counter("sim.symbols").Add(delta.Symbols)
	d.Counter("sim.enabled").Add(delta.Enabled)
	d.Counter("sim.active").Add(delta.Active)
	d.Counter("sim.counter_pulses").Add(delta.CounterPulses)
	d.Counter("sim.reports").Add(delta.Reports)
	e.published = e.stats
}

// Reset clears all runtime state: the frontier, counters, latches, offset
// and statistics. The next symbol consumed is treated as the start of
// data.
func (e *Engine) Reset() {
	e.FlushTelemetry() // don't lose stats accumulated via bare Step calls
	e.frontier = e.frontier[:0]
	e.next = e.next[:0]
	// One bump suffices for EnableState's mark[id] == gen-1 dedupe to stay
	// sound: marks are only ever written with the in-Step generation (or
	// gen-1 by EnableState itself), and Step bumps gen after writing, so
	// every stale mark is <= gen-2 here — a state enabled in the final
	// cycle of the previous run CAN be re-armed immediately after Reset
	// (pinned by TestEnableStateAfterReset).
	e.gen++
	if e.gen < 2 { // wrapped (or first use): clear marks, keep gen >= 2
		for i := range e.mark {
			e.mark[i] = 0
			e.amark[i] = 0
		}
		e.gen = 2
	}
	clear(e.counterVal)
	for _, id := range e.pulsed {
		e.pulseMark[id] = false
	}
	e.pulsed = e.pulsed[:0]
	clear(e.latched)
	e.offset = 0
	e.stats = Stats{}
	e.published = Stats{}
	e.ledMark = 0
}

// Stats returns the statistics accumulated since the last Reset.
func (e *Engine) Stats() Stats { return e.stats }

// Run consumes the entire input and returns the accumulated statistics.
// It may be called repeatedly to continue the same logical stream.
func (e *Engine) Run(input []byte) Stats {
	sp := e.h.Spans.Start("sim.run")
	e.scanChunk(input)
	e.FlushTelemetry()
	sp.End()
	return e.stats
}

// RunChecked is Run under the attached hooks: the input is consumed
// through the shared chunk protocol (hooks.Set.Chunks) at
// guard.SiteSimChunk, with the enabled frontier as the active set. On a
// budget trip the run stops between chunks and the partial statistics are
// returned with the *guard.TripError. With no governor, progress tracker,
// recorder or checkpointer attached it is exactly Run.
func (e *Engine) RunChecked(input []byte) (Stats, error) {
	if !e.h.Chunked() {
		return e.Run(input), nil
	}
	sp := e.h.Spans.Start("sim.run")
	err := e.h.Chunks(guard.SiteSimChunk, input, e.scanChunk, e.FrontierLen, e.flushLedger)
	e.FlushTelemetry()
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
	for _, t := range e.succ[id] {
		if e.isCounter[t] {
			e.pulse(t)
		} else {
			e.enable(t)
		}
	}
}

// stepTelemetry runs the per-symbol hooks; called only when telemetryOn.
// Kept out of Step so the disabled hot loop carries a single branch.
func (e *Engine) stepTelemetry(b byte) {
	if e.h.Tracer != nil {
		e.h.Tracer.OnSymbol(e.offset, b)
	}
	if e.frontierHist != nil {
		e.frontierHist.Observe(int64(len(e.frontier)))
	}
}

// activateTelemetry runs the per-activation hooks; called only when
// telemetryOn.
func (e *Engine) activateTelemetry(id automata.StateID) {
	if e.h.Tracer != nil {
		e.h.Tracer.OnActivate(e.offset, id)
	}
}

// pulse delivers a count-enable to a counter (at most one increment per
// counter per cycle, per the AP model).
func (e *Engine) pulse(id automata.StateID) {
	if e.pulseMark[id] {
		return
	}
	e.pulseMark[id] = true
	e.pulsed = append(e.pulsed, id)
	e.stats.CounterPulses++
}

// fireCounters resolves end-of-cycle counter increments.
//
// Semantics (pinned by TestChainedCounter* and the difftest oracle): a
// counter's count-enable input is a single wire, so it receives at most one
// increment per cycle — STE pulses and same-cycle chained fires from other
// counters all coalesce into that one increment. Resolution seeds from the
// pulsed set in ascending element-ID order and cascades FIFO: a counter
// reaching its target fires (reports, enables STE successors for the next
// symbol) and delivers a same-cycle count-enable to its counter successors,
// which obey the one-increment rule, the latch, and their own thresholds.
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
	queue := e.pulsed
	slices.Sort(queue)
	for i := 0; i < len(queue); i++ {
		id := queue[i]
		if e.latched[id] {
			continue // a latched counter ignores count-enables until Reset
		}
		cfg := e.counterCfg[id]
		v := e.counterVal[id] + 1
		if v < cfg.Target {
			e.counterVal[id] = v
			continue
		}
		// Fire.
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

// Step consumes one input symbol.
func (e *Engine) Step(b byte) {
	e.stats.Symbols++
	if e.telemetryOn {
		e.stepTelemetry(b)
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
	e.gen++
	if e.gen < 2 { // wrapped: clear marks, keep gen >= 2 for EnableState
		for i := range e.mark {
			e.mark[i] = 0
			e.amark[i] = 0
		}
		e.gen = 2
		// Re-mark the live frontier: its states were marked with the
		// pre-wrap generation, and EnableState dedupes against mark[id] ==
		// gen-1. Without this, re-arming a state already on the frontier
		// right after a wrap appends a duplicate (double-counted in
		// Enabled); see TestEnableStateDedupeAcrossGenerationWrap.
		for _, s := range e.frontier {
			e.mark[s] = e.gen - 1
		}
	}
	e.offset++
}

// EnableState places id on the frontier for the NEXT Step call, as if an
// active predecessor had enabled it. This is the hook context-sensitive
// rule engines use to arm a secondary automaton when a trigger pattern
// reports (the paper's §XI future-work direction). Call it between Step
// calls (or from OnReport of another engine); duplicates are coalesced.
func (e *Engine) EnableState(id automata.StateID) {
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
	f := append([]automata.StateID(nil), e.frontier...)
	slices.Sort(f)
	return f
}

// CaptureState snapshots the engine's continuation state between Step
// calls. The snapshot shares nothing with the engine and stays valid
// across Reset/RestoreState.
func (e *Engine) CaptureState() *StreamState {
	s := &StreamState{Offset: e.offset, Frontier: e.FrontierSnapshot()}
	for id, v := range e.counterVal {
		s.Counters = append(s.Counters, CounterSnapshot{ID: id, Value: v, Latched: e.latched[id]})
	}
	slices.SortFunc(s.Counters, func(a, b CounterSnapshot) int { return int(a.ID) - int(b.ID) })
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
		if int(c.ID) >= len(e.isCounter) || !e.isCounter[c.ID] {
			return fmt.Errorf("sim: RestoreState: state %d is not a counter", c.ID)
		}
	}
	e.Reset()
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
