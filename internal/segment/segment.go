// Package segment is the data-parallel input scanner: it splits ONE input
// stream into N contiguous segments, scans segment 0 exactly from the real
// start state while segments 1..N-1 scan speculatively, then stitches the
// boundary frontiers left-to-right and commits or replays each segment so
// the merged result is byte-identical to a single sequential scan.
//
// The speculation scheme is the warmup variant of the Simultaneous Finite
// Automata construction (Sinya et al., PAPERS.md): a full SFA tracks every
// possible entry state per segment; homogeneous NFA frontiers make the
// exact-mapping form unnecessary, because the frontier transition is a
// union-homomorphism and real frontiers forget their distant past quickly.
// Each speculative segment therefore pre-scans a small warmup window (the
// bytes just before its boundary) from the empty frontier; by the boundary
// the warmup frontier has usually converged to the true one. Correctness
// never depends on that convergence: at stitch time the committed entry
// frontier is compared set-exactly against the master's, and a mismatch
// replays the segment on the master engine. Speculation only buys speed;
// validation guarantees the invariant.
//
// Invariants (pinned by the SeqVsSegmented difftest oracle and the
// suite-wide matrix test):
//
//   - Stats (Symbols/Enabled/Active/Reports) are exactly the sequential
//     run's: a committed segment's entry frontier equals the true one, and
//     the engine is deterministic from (frontier, counters, offset).
//   - The report multiset is exactly the sequential run's. Within one
//     offset, reports are delivered in canonical (offset, code, state)
//     order rather than engine emission order — the one observable
//     difference, and only for same-offset ties.
//   - An engine that is not Speculative — counter automata (counter values
//     don't converge like frontiers) and the caching DFA (its printed cache
//     statistics are interning history) — cascades the segments
//     sequentially on the master engine, trivially exact, with no
//     parallel speedup.
//
// Waste is observable: Stitch counts committed/replayed segments and the
// warmup/replay bytes, published as segment.* registry counters (and from
// there /metrics and report manifests) — never to stdout, which must stay
// byte-identical across -segments values.
package segment

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/parallel"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

const (
	// DefaultWarmup is the speculative pre-scan window in bytes. Real
	// rulesets' frontiers carry only a few pattern-lengths of history, so a
	// few KiB converges essentially always; the cost is re-scanning this
	// many bytes per speculative segment.
	DefaultWarmup = 8 << 10
	// DefaultAutoMinBytes is the smallest per-segment size auto resolution
	// will create: below ~1 MiB per segment, stitch and warmup overhead
	// outweigh the parallelism, and the suite's standard table inputs
	// (hundreds of KiB) deliberately resolve to a single segment so default
	// runs keep the exact historical execution path.
	DefaultAutoMinBytes = 1 << 20
	// warmChunk is the warmup governor-check granularity, matching the
	// engines' cooperative chunking.
	warmChunk = hooks.Chunk
)

// Resolve decides the segment count for an n-byte stream. requested > 1
// asks for exactly that many (clamped to one byte per segment); 1 disables
// segmentation; <= 0 means auto: min(workers, n/DefaultAutoMinBytes) so
// small inputs stay sequential and large ones fan out to the worker count.
func Resolve(n int64, requested, workers int) int {
	if n <= 1 {
		return 1
	}
	if requested == 1 {
		return 1
	}
	if requested > 1 {
		k := int64(requested)
		if k > n {
			k = n
		}
		return int(k)
	}
	k := n / DefaultAutoMinBytes
	if w := int64(parallel.Workers(workers)); k > w {
		k = w
	}
	if k < 1 {
		k = 1
	}
	return int(k)
}

// Bounds splits [0, n) into k contiguous segments of near-equal size and
// returns the k+1 boundary offsets.
func Bounds(n int64, k int) []int64 {
	bounds := make([]int64, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = n * int64(i) / int64(k)
	}
	return bounds
}

// Engine is the execution contract every scan driver uses. sim.Engine
// (the NFA interpreter), prefilter.Engine (the two-stage literal
// prefilter) and dfa.Engine (the lazy DFA) all satisfy it. A Speculative
// engine gains segment parallelism for free, provided it is deterministic
// from (frontier, offset, input) — the stitch validates FrontierSnapshot
// equality and assumes everything downstream of an equal snapshot
// coincides; any other engine cascades its segments.
type Engine interface {
	Reset()
	Step(b byte)
	RunChecked(input []byte) (sim.Stats, error)
	Stats() sim.Stats
	SetOnReport(fn func(sim.Report))
	Attach(h hooks.Set)
	SetOffset(off int64)
	FrontierSnapshot() []automata.StateID
	RestoreState(s *sim.StreamState) error
	Speculative() bool
}

// Hooks is the driver-level hook bundle: what every scan driver
// (scan, segment, partition, stats, experiments, cmd/azoo) carries by
// value from the command line down to the engines it builds. The option
// structs of those layers embed it; stats.Hooks is an alias of it. All
// fields are optional and the zero value is a bare run.
type Hooks struct {
	// Registry is held by no engine: each driver publishes the engine
	// counts of the scan units it owns (Publish), so sim.*/dfa.* counters
	// describe engine work — per-slice passes, warmup and replay waste
	// included — and exact stream statistics come from the drivers'
	// Results. Drivers publish their own counters (segment.*, ckpt.*) here
	// too. Final contents are deterministic at any worker or segment count.
	Registry *telemetry.Registry
	// Tracer is attached to whole-automaton engines and segment masters,
	// but not to speculative segment engines: a traced segmented run
	// records the master's work (segment 0 plus replays), not the full
	// stream — use -segments 1 for complete traces. scan.Run never splits
	// a traced run into component slices, whose engines number states
	// locally, so the tracer sees automaton state IDs in stream order. It
	// must be safe for concurrent use (telemetry.NDJSON is).
	Tracer telemetry.Tracer
	// Spans receives each driver's own phase spans ("segment.run" with
	// "segment.scan"/"segment.stitch" children; "partition.run" with
	// "extract"/"scan"/"merge"). Concurrent tasks record into forks adopted
	// in index order, so the tree is deterministic at any worker count.
	// Engines built under the bundle get no Spans (see EngineSet).
	Spans *telemetry.Spans
	// Governor bounds the run: drivers check in at their own sites
	// (segment.spec, partition.slice, experiments.kernel) and every engine
	// runs governed, so one trip anywhere stops every task cooperatively at
	// its next chunk boundary.
	Governor *guard.Governor
	// Progress receives chunk-boundary heartbeats from every engine
	// (atomic adds, commutative across slices/segments/workers) and the
	// expected total from the driver that knows it. Warmup bytes do not
	// beat; replayed bytes beat twice — ETA is approximate under waste.
	Progress *telemetry.ProgressTracker
	// Attribution collects per-component cost attribution (internal/attr):
	// every engine scans into its own ledger (see Ledger), committed when
	// its scan unit completes — or discarded when a speculative segment
	// fails validation and is replayed — so the folded totals equal the
	// sequential scan's exactly at any worker or segment count.
	Attribution *attr.Collector
	// NewEngine constructs every scan engine the run builds; nil uses the
	// plain NFA interpreter (sim.New). The factory must be deterministic —
	// every engine it returns must produce identical stats and report
	// streams over identical inputs, or the byte-identity guarantees break.
	NewEngine func(*automata.Automaton) (Engine, error)
}

// EngineSet is the one driver→engine conversion: the ambient sinks an
// engine like e is attached with — the Registry only as the sim.frontier
// histogram, for an engine with an NFA frontier. Spans stays behind:
// drivers time their own phases. Ledger and Checkpointer are per scan
// unit and set by the driver that owns the unit.
func (h Hooks) EngineSet(e Engine) hooks.Set {
	set := hooks.Set{Tracer: h.Tracer, Governor: h.Governor, Progress: h.Progress}
	if _, ok := e.(interface{ FrontierLen() int }); ok && h.Registry != nil {
		set.Frontier = h.Registry.Histogram("sim.frontier", telemetry.ExpBuckets(1, 16))
	}
	return set
}

// work is what Publish counts of an engine since its Reset: Stats, and
// the prefilter's anchor hits and residual NFA work.
type work struct {
	st                 sim.Stats
	anchors, residuals int64
}

type prefiltered interface {
	AnchorHits() int64
	ResidualWork() int64
}

func workOf(e Engine) (w work) {
	w.st = e.Stats()
	if p, ok := e.(prefiltered); ok {
		w.anchors, w.residuals = p.AnchorHits(), p.ResidualWork()
	}
	return w
}

// Publish adds the work e has done since its Reset to h.Registry
// (nil-safe): sim.* and, for the prefilter, prefilter.* counters, or
// dfa.symbols and dfa.reports. The driver that owns a scan unit calls it
// once, when the unit ends.
func (h Hooks) Publish(e Engine) { h.publish(e, work{}) }

// publish adds the work e has done since base, read from e earlier.
func (h Hooks) publish(e Engine, base work) {
	r := h.Registry
	if r == nil {
		return
	}
	w := workOf(e)
	st := subStats(w.st, base.st)
	if _, ok := e.(interface{ CacheStats() dfa.Stats }); ok {
		r.Counter("dfa.symbols").Add(st.Symbols)
		r.Counter("dfa.reports").Add(st.Reports)
		return
	}
	r.Counter("sim.symbols").Add(st.Symbols)
	r.Counter("sim.enabled").Add(st.Enabled)
	r.Counter("sim.active").Add(st.Active)
	r.Counter("sim.counter_pulses").Add(st.CounterPulses)
	r.Counter("sim.reports").Add(st.Reports)
	if _, ok := e.(prefiltered); ok {
		r.Counter("prefilter.anchor_hits").Add(w.anchors - base.anchors)
		r.Counter("prefilter.residual_work").Add(w.residuals - base.residuals)
	}
}

// PublishCache adds the cache profile c of a run's dfa engines to
// h.Registry (nil-safe): the cache counters, which persist across Reset
// and so are published once per run, and the levels as the dfa.* gauges.
func (h Hooks) PublishCache(c dfa.Stats) {
	r := h.Registry
	if r == nil {
		return
	}
	r.Counter("dfa.cache_hits").Add(c.CacheHits)
	r.Counter("dfa.cache_misses").Add(c.CacheMisses)
	r.Counter("dfa.cache_evictions").Add(c.CacheEvictions)
	r.Counter("dfa.construct_nanos").Add(c.ConstructNanos)
	r.Counter("dfa.fallback_bytes").Add(c.FallbackBytes)
	r.Gauge("dfa.states").Set(int64(c.DFAStates))
	r.Gauge("dfa.fallbacks").Set(int64(c.Fallbacks))
	r.Gauge("dfa.cache_bytes").Set(c.CacheBytes)
}

// New builds one scan engine for a through h.NewEngine (sim.New when nil).
func (h Hooks) New(a *automata.Automaton) (Engine, error) {
	if h.NewEngine == nil {
		return sim.New(a), nil
	}
	return h.NewEngine(a)
}

// Ledger returns a fresh attribution ledger for one engine, or nil when
// attribution is off. compOf maps the engine's (possibly slice-local)
// state IDs to the collector's global component indices; nil uses the
// collector's whole-automaton map.
func (h Hooks) Ledger(compOf []int32) *attr.Ledger {
	if h.Attribution == nil {
		return nil
	}
	if compOf == nil {
		compOf = h.Attribution.GlobalCompOf()
	}
	return h.Attribution.Ledger(compOf)
}

// Options parameterizes a segment-parallel run. The zero value scans
// sequentially (auto segment resolution over a zero-worker default).
type Options struct {
	// Segments is the requested segment count: <= 0 auto (from input size
	// and Workers, see Resolve), 1 off, N exactly N.
	Segments int
	// Workers bounds the goroutines scanning segments; <= 0 means one per
	// CPU, 1 scans the segments inline in order (still byte-identical).
	Workers int
	// Warmup is the speculative pre-scan window in bytes: 0 means
	// DefaultWarmup, < 0 disables speculation entirely (segments cascade
	// sequentially on the master engine — exact, but no speedup).
	Warmup int
	// OnReport, if non-nil, receives every report after the stitch
	// completes, in canonical (offset, code, state) order.
	OnReport func(sim.Report)
	// Hooks are attached to every engine (master and speculative). The
	// master engine carries an attribution ledger committed at the stitch; each
	// speculative segment scans into a scratch ledger that attaches after
	// warmup — at the point the segment's exact stats baseline is taken, so
	// warmup bytes are never charged — and is committed only when the
	// speculation validates.
	Hooks
	// Master, if non-nil, is used as the master engine instead of a
	// factory-built one. The scan driver (internal/scan) passes its one
	// whole-automaton engine here, so consecutive chunks of one stream
	// continue the same logical scan and a caching engine keeps one cache
	// across streams; the runner attaches the Options hooks to it exactly
	// as it would to a fresh engine, and does NOT reset it — its frontier
	// and offset are the chunk's entry state.
	Master Engine
	// BaseOffset is the absolute stream offset of input[0]. Speculative
	// warmups and stitch restores position engines at BaseOffset-relative
	// absolute offsets, so report offsets stay stream-absolute when the
	// runner scans one chunk of a longer stream. 0 (the whole-stream case)
	// is the historical behavior.
	BaseOffset int64
}

// Stitch counts the stitch outcomes of one segmented run — the
// speculation-waste observability surface.
type Stitch struct {
	// Segments is the resolved segment count (1 = segmentation off).
	Segments int64
	// Speculated counts segments scanned speculatively in phase 1.
	Speculated int64
	// Committed counts speculative segments whose warmup frontier matched
	// the true boundary frontier and were committed as-is.
	Committed int64
	// Replayed counts speculative segments whose frontier mismatched and
	// were re-scanned on the master engine (pure waste).
	Replayed int64
	// WarmupBytes is the total bytes pre-scanned by speculative warmup.
	WarmupBytes int64
	// ReplayBytes is the total bytes re-scanned due to failed speculation.
	ReplayBytes int64
}

// Add accumulates other into s (merging per-stream or per-slice stitches).
func (s *Stitch) Add(other Stitch) {
	s.Segments += other.Segments
	s.Speculated += other.Speculated
	s.Committed += other.Committed
	s.Replayed += other.Replayed
	s.WarmupBytes += other.WarmupBytes
	s.ReplayBytes += other.ReplayBytes
}

// Publish adds the stitch counts to reg's segment.* counters (nil-safe).
func (s Stitch) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("segment.segments").Add(s.Segments)
	reg.Counter("segment.speculated").Add(s.Speculated)
	reg.Counter("segment.committed").Add(s.Committed)
	reg.Counter("segment.replayed").Add(s.Replayed)
	reg.Counter("segment.warmup_bytes").Add(s.WarmupBytes)
	reg.Counter("segment.replay_bytes").Add(s.ReplayBytes)
}

// Result aggregates one segmented scan of one stream.
type Result struct {
	// Stats is exactly the sequential run's statistics for the scanned
	// prefix (the whole stream on success, the bytes before the trip on
	// truncation).
	Stats sim.Stats
	// Stitch is the speculation/stitch outcome tally.
	Stitch Stitch
}

// spec holds one speculative segment's phase-1 output awaiting the stitch.
type spec struct {
	ok      bool
	entry   []automata.StateID // speculated boundary frontier (sorted)
	exit    []automata.StateID // frontier after the segment (sorted)
	stats   sim.Stats
	reports []sim.Report
	led     *attr.Ledger // scratch attribution, committed iff validated
}

// runner is one segmented scan: phase 1 runs tasks() independent work
// items (runTask is safe to call concurrently for distinct tasks), and
// finish performs the sequential left-to-right stitch.
type runner struct {
	a     *automata.Automaton
	input []byte
	opts  Options

	k      int
	bounds []int64
	specOK bool
	warmup int

	master Engine
	pool   sync.Pool
	specs  []spec
	forks  []*telemetry.Spans
	root   *telemetry.Span

	collect   bool
	perSeg    [][]sim.Report
	total     sim.Stats
	masterLed *attr.Ledger
	specSet   hooks.Set // what pooled speculative engines are attached with

	speculated  atomic.Int64
	warmupBytes atomic.Int64
}

// newRunner prepares a segmented scan of input. Resolution happens here,
// and a resolution of 1 degenerates to an exact single-task sequential
// scan. The error is the engine factory's (nil-factory sim construction
// cannot fail).
func newRunner(a *automata.Automaton, input []byte, opts Options) (*runner, error) {
	r := &runner{a: a, input: input, opts: opts}
	r.warmup = opts.Warmup
	if r.warmup == 0 {
		r.warmup = DefaultWarmup
	}
	if r.warmup < 0 {
		r.warmup = 0
	}
	r.k = Resolve(int64(len(input)), opts.Segments, opts.Workers)
	r.bounds = Bounds(int64(len(input)), r.k)
	r.collect = opts.OnReport != nil
	r.specs = make([]spec, r.k)
	r.perSeg = make([][]sim.Report, r.k)

	if r.master = opts.Master; r.master == nil {
		m, err := opts.New(a)
		if err != nil {
			return nil, err
		}
		r.master = m
	}
	r.specOK = r.k > 1 && r.warmup > 0 && r.master.Speculative()
	set := opts.EngineSet(r.master)
	r.masterLed = opts.Ledger(nil)
	set.Ledger = r.masterLed
	r.master.Attach(set)

	// Speculative engines carry no tracer (see Hooks.Tracer) and a scratch
	// ledger only while scanning their own segment (see speculate).
	set.Tracer, set.Ledger = nil, nil
	r.specSet = set
	r.pool.New = func() any {
		e, err := opts.New(a)
		if err != nil {
			// The master above was built by the same deterministic factory
			// and succeeded; a pooled construction cannot fail.
			panic(err)
		}
		e.Attach(r.specSet)
		return e
	}

	r.root = opts.Spans.Start("segment.run")
	if opts.Spans != nil {
		r.forks = make([]*telemetry.Spans, r.tasks())
		for i := range r.forks {
			r.forks[i] = opts.Spans.Fork()
		}
	}
	return r, nil
}

// tasks returns the phase-1 work-item count: one per segment when
// speculation is on, otherwise 1 (the stitch cascades the segments
// sequentially on the master engine).
func (r *runner) tasks() int {
	if r.specOK {
		return r.k
	}
	return 1
}

// runTask executes phase-1 work item i. Task 0 is the master engine's
// exact scan of segment 0 (so a trip still yields exact prefix-partial
// statistics); tasks 1..k-1 are speculative warmup+scan. Distinct tasks
// may run concurrently.
func (r *runner) runTask(i int) error {
	if r.forks != nil {
		sp := r.forks[i].Start("segment.scan")
		defer sp.End()
	}
	if err := r.opts.Governor.Boundary(guard.SiteSegment, 0); err != nil {
		return err
	}
	if i == 0 {
		return r.scanMaster(0)
	}
	return r.speculate(i)
}

// scanMaster scans segment i on the master engine, accumulating exact
// stats and (canonicalized) reports. Called for segment 0 in phase 1 and
// for cascaded/replayed segments during the stitch.
func (r *runner) scanMaster(i int) error {
	lo, hi := r.bounds[i], r.bounds[i+1]
	var buf []sim.Report
	if r.collect {
		r.master.SetOnReport(func(rep sim.Report) { buf = append(buf, rep) })
	}
	base := workOf(r.master)
	st, err := r.master.RunChecked(r.input[lo:hi])
	r.master.SetOnReport(nil)
	r.opts.publish(r.master, base)
	r.total = r.total.Add(subStats(st, base.st))
	r.perSeg[i] = canonReports(buf)
	return err
}

// speculate runs segment i's warmup and speculative scan on a pooled
// engine, leaving the candidate result in r.specs[i].
func (r *runner) speculate(i int) error {
	e := r.pool.Get().(Engine)
	defer r.pool.Put(e)
	e.Reset()
	lo, hi := r.bounds[i], r.bounds[i+1]
	ws := lo - int64(r.warmup)
	if ws < 0 {
		ws = 0
	}
	// Warmup: re-scan the window before the boundary from the empty
	// frontier. Reports are suppressed (no OnReport) and the bytes are not
	// charged to the input budget — they are re-scanned stream bytes,
	// already charged once by whichever engine owns them — but the
	// governor still gets a trip/fault checkpoint per chunk so a tripped
	// run unwinds speculative workers too.
	e.SetOffset(r.opts.BaseOffset + ws)
	for off := ws; off < lo; {
		end := off + warmChunk
		if end > lo {
			end = lo
		}
		if err := r.opts.Governor.Boundary(guard.SiteSegment, 0); err != nil {
			return err
		}
		for _, b := range r.input[off:end] {
			e.Step(b)
		}
		off = end
	}
	r.warmupBytes.Add(lo - ws)
	r.speculated.Add(1)

	entry := e.FrontierSnapshot()
	base := e.Stats()
	var buf []sim.Report
	if r.collect {
		e.SetOnReport(func(rep sim.Report) { buf = append(buf, rep) })
	}
	// The scratch attribution ledger attaches here — after warmup, at the
	// exact-stats baseline — so it records only the segment's own scan.
	set := r.specSet
	set.Ledger = r.opts.Ledger(nil)
	e.Attach(set)
	st, err := e.RunChecked(r.input[lo:hi])
	e.SetOnReport(nil)
	e.Attach(r.specSet)
	// Everything since the Reset: the warmup is speculation waste, and
	// counted as such.
	r.opts.Publish(e)
	if err != nil {
		return err
	}
	r.specs[i] = spec{
		ok:      true,
		entry:   entry,
		exit:    e.FrontierSnapshot(),
		stats:   subStats(st, base),
		reports: canonReports(buf),
		led:     set.Ledger,
	}
	return nil
}

// finish performs the left-to-right stitch after phase 1 and returns the
// merged result. phase1Err, when non-nil, short-circuits: the master's
// exact partial statistics are returned with it (speculative partial work
// is discarded — it may cover bytes the master never reached).
func (r *runner) finish(phase1Err error) (Result, error) {
	for _, f := range r.forks {
		r.root.Adopt(f)
	}
	res := Result{Stitch: Stitch{
		Segments:    int64(r.k),
		Speculated:  r.speculated.Load(),
		WarmupBytes: r.warmupBytes.Load(),
	}}
	if phase1Err != nil {
		res.Stats = r.total
		res.Stitch.Publish(r.opts.Registry)
		if r.masterLed != nil {
			r.masterLed.Commit()
		}
		r.root.End()
		return res, phase1Err
	}
	ssp := r.root.Start("segment.stitch")
	var err error
	for i := 1; i < r.k; i++ {
		s := &r.specs[i]
		if r.specOK && s.ok && slices.Equal(r.master.FrontierSnapshot(), s.entry) {
			// Speculation validated: the segment was scanned from the true
			// boundary frontier, so its stats and reports are exact. Jump
			// the master to the segment's exit state.
			r.total = r.total.Add(s.stats)
			r.perSeg[i] = s.reports
			if err = r.master.RestoreState(&sim.StreamState{Offset: r.opts.BaseOffset + r.bounds[i+1], Frontier: s.exit}); err != nil {
				break
			}
			if s.led != nil {
				s.led.Commit()
			}
			res.Stitch.Committed++
			continue
		}
		if s.led != nil {
			// Failed speculation: the master re-scans (and charges) these
			// bytes below; the scratch ledger is waste, not cost.
			s.led.Discard()
		}
		if r.specOK {
			res.Stitch.Replayed++
			res.Stitch.ReplayBytes += r.bounds[i+1] - r.bounds[i]
		}
		if err = r.scanMaster(i); err != nil {
			break
		}
	}
	ssp.End()
	res.Stats = r.total
	res.Stitch.Publish(r.opts.Registry)
	if r.masterLed != nil {
		r.masterLed.Commit()
	}
	if err != nil {
		r.root.End()
		return res, err
	}
	if r.collect {
		for _, seg := range r.perSeg {
			for _, rep := range seg {
				r.opts.OnReport(rep)
			}
		}
	}
	r.root.End()
	return res, nil
}

// Run scans input with segment parallelism and returns the stitched
// result. The result is byte-identical (stats and report multiset) to a
// single sequential scan; see the package comment for the one ordering
// caveat on same-offset reports.
func Run(ctx context.Context, a *automata.Automaton, input []byte, opts Options) (Result, error) {
	// A cancellable ctx without an explicit governor still gets mid-scan
	// cancellation observability, mirroring partition.Run.
	if opts.Governor == nil && ctx != nil && ctx.Done() != nil {
		opts.Governor = guard.New(ctx, guard.Budget{})
	}
	r, err := newRunner(a, input, opts)
	if err != nil {
		return Result{}, err
	}
	err = parallel.ForEach(ctx, opts.Workers, r.tasks(), r.runTask)
	return r.finish(err)
}

// canonReports sorts one segment's report buffer into the canonical
// (offset, code, state) order. Segments are disjoint and ascending, so
// concatenating canonical per-segment buffers segment-major yields a
// globally canonical stream.
func canonReports(buf []sim.Report) []sim.Report {
	sort.Slice(buf, func(x, y int) bool {
		if buf[x].Offset != buf[y].Offset {
			return buf[x].Offset < buf[y].Offset
		}
		if buf[x].Code != buf[y].Code {
			return buf[x].Code < buf[y].Code
		}
		return buf[x].State < buf[y].State
	})
	return buf
}

func subStats(a, b sim.Stats) sim.Stats {
	return sim.Stats{
		Symbols:       a.Symbols - b.Symbols,
		Enabled:       a.Enabled - b.Enabled,
		Active:        a.Active - b.Active,
		CounterPulses: a.CounterPulses - b.CounterPulses,
		Reports:       a.Reports - b.Reports,
	}
}
