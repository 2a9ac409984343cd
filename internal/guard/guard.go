// Package guard is the suite's run governor: cooperative resource budgets
// (wall-clock deadline, input bytes, DFA cache bytes, NFA active-set size)
// checked at cheap execution boundaries, plus deterministic fault
// injection (see injector.go) for exercising every failure path on
// purpose.
//
// The paper's harness assumes every kernel runs to completion on a
// friendly machine. A production automata service cannot: a pathological
// automaton can blow up the subset construction, a hostile input can run
// unbounded, and a single crashing kernel must not take the process down.
// One *Governor is shared by every execution layer of a run — engines
// (sim, dfa), the partition fan-out, the experiment harnesses, and the
// azoo CLI — so a budget tripped anywhere stops the whole run
// cooperatively, and the CLI can still emit a valid, Truncated-flagged
// run-report manifest.
//
// Design rules:
//
//   - A nil *Governor is a valid no-op receiver; ungoverned runs pay one
//     nil check per boundary and nothing else.
//   - Trips are sticky: the first TripError is recorded atomically and
//     every later check returns it, so concurrent workers converge on the
//     same structured error instead of racing.
//   - The cache-byte budget is a degradation signal, not a trip:
//     GrowCache denies the reservation and the DFA engine falls back to
//     NFA stepping for that component (reports are unchanged — pinned by
//     the difftest oracle). All other budgets truncate the run.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Budget bounds one run. The zero value is unlimited; any field left zero
// is individually unlimited.
type Budget struct {
	// Timeout is the wall-clock budget for the run, measured from New.
	Timeout time.Duration
	// MaxInputBytes bounds the cumulative input consumed across all
	// engines sharing the governor.
	MaxInputBytes int64
	// MaxCacheBytes bounds the cumulative interned DFA-state bytes across
	// all engines sharing the governor. Exceeding it degrades (DFA→NFA
	// fallback) rather than truncating.
	MaxCacheBytes int64
	// MaxActiveSet bounds the NFA enabled-frontier size, checked per input
	// chunk; a frontier beyond it trips the run (subset-blowup guard for
	// interpreted engines).
	MaxActiveSet int64
}

// Unlimited reports whether every budget field is zero.
func (b Budget) Unlimited() bool {
	return b.Timeout == 0 && b.MaxInputBytes == 0 && b.MaxCacheBytes == 0 && b.MaxActiveSet == 0
}

// Budget names used in TripError.Budget and report manifests.
const (
	BudgetDeadline   = "deadline"
	BudgetCanceled   = "canceled"
	BudgetInputBytes = "input-bytes"
	BudgetCacheBytes = "cache-bytes"
	BudgetActiveSet  = "active-set"
	BudgetInjected   = "injected"
	BudgetStalled    = "stalled"
	// BudgetSignaled marks a trip forced by SIGINT/SIGTERM: the CLI's
	// signal handler routes delivery through TripSignaled so engines drain
	// at the next chunk boundary and the run closes like any other
	// truncation (truncated manifest, exit code 3).
	BudgetSignaled = "signaled"
	// BudgetCrashed marks an injected process death (the `crash:` fault
	// kind): the checkpoint saver aborts *instead of* completing the save,
	// simulating kill -9 at a save boundary for the crash-resume oracle.
	BudgetCrashed = "crashed"
)

// Boundary site names. Engines and harnesses pass these to Boundary /
// Inject / GrowCache; the fault injector matches rules against them.
const (
	SiteSimChunk       = "sim.chunk"
	SiteDFAChunk       = "dfa.chunk"
	SiteDFAConstruct   = "dfa.construct"
	SitePartitionSlice = "partition.slice"
	SiteKernel         = "experiments.kernel"
	// SiteSegment is the per-segment boundary of the segment-parallel
	// scanner (internal/segment): checked before each segment task starts
	// and at every warmup chunk of a speculative scan. Warmup boundaries
	// pass n == 0 — warmup bytes are re-scanned stream bytes, so they must
	// not count against MaxInputBytes (the segment-proper scan accounts
	// them once, at the usual sim.chunk boundary).
	SiteSegment = "segment.spec"
	// SitePrefilter is the two-stage prefilter engine's ~4 KiB cooperative
	// chunk boundary (internal/prefilter), the analogue of sim.chunk /
	// dfa.chunk for the third execution mode. Fault-injection rules keyed
	// on it trip prefilter runs independently of -j / -segments, since
	// every prefilter engine (master, speculative, per-slice) checks in
	// here.
	SitePrefilter = "prefilter.chunk"
	// SiteCkptSave is the checkpoint saver's boundary, hit once per
	// attempted save. `crash:ckpt.save:~N` rules abort the process-visible
	// run there *without* writing, simulating a kill at a save point.
	SiteCkptSave = "ckpt.save"
	// SiteCkptWrite is the checkpoint saver's I/O site: `ioerr:` rules
	// matched here (via InjectIO) fail individual write attempts to
	// exercise the retry/backoff and sticky-disable paths.
	SiteCkptWrite = "ckpt.write"
)

// TripError is the structured error for a tripped budget: which budget,
// the configured limit, the observed value, and (when site-specific) the
// boundary that noticed. Deadline and cancellation trips unwrap to
// context.DeadlineExceeded / the context's error so existing errors.Is
// checks keep working.
type TripError struct {
	Budget   string // one of the Budget* constants
	Limit    int64  // configured limit (nanoseconds for deadline), 0 if n/a
	Actual   int64  // observed value at the trip, 0 if n/a
	Site     string // boundary site, "" when not site-specific
	Injected bool   // true when forced by the fault injector
	Cause    error  // wrapped cause (context errors), may be nil
}

func (e *TripError) Error() string {
	at := ""
	if e.Site != "" {
		at = " at " + e.Site
	}
	inj := ""
	if e.Injected {
		inj = " (injected)"
	}
	switch e.Budget {
	case BudgetDeadline:
		if e.Limit > 0 {
			return fmt.Sprintf("guard: deadline budget of %v exceeded%s%s", time.Duration(e.Limit), at, inj)
		}
		return fmt.Sprintf("guard: deadline exceeded%s%s", at, inj)
	case BudgetCanceled:
		return fmt.Sprintf("guard: run canceled%s%s", at, inj)
	case BudgetInjected:
		return fmt.Sprintf("guard: injected budget trip%s", at)
	case BudgetStalled:
		return fmt.Sprintf("guard: run stalled (no heartbeat for %v)%s%s", time.Duration(e.Actual), at, inj)
	case BudgetSignaled:
		return fmt.Sprintf("guard: run interrupted by signal%s%s", at, inj)
	case BudgetCrashed:
		return fmt.Sprintf("guard: injected crash%s", at)
	default:
		return fmt.Sprintf("guard: %s budget exceeded (limit %d, got %d)%s%s", e.Budget, e.Limit, e.Actual, at, inj)
	}
}

func (e *TripError) Unwrap() error { return e.Cause }

// AsTrip unwraps err to a *TripError, or nil.
func AsTrip(err error) *TripError {
	var t *TripError
	if errors.As(err, &t) {
		return t
	}
	return nil
}

// Governor enforces one Budget across every execution layer of a run. It
// is safe for concurrent use (the parallel layer shares one governor
// across workers); all methods are nil-receiver no-ops.
type Governor struct {
	budget   Budget
	ctx      context.Context
	deadline time.Time
	input    atomic.Int64
	cache    atomic.Int64
	trip     atomic.Pointer[TripError]
	tripped  chan struct{} // closed by the first record; wakes stalled sites
	inj      *Injector
}

// New returns a governor for budget b, observing ctx for cancellation
// (nil ctx means context.Background()). The deadline clock starts now.
func New(ctx context.Context, b Budget) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Governor{budget: b, ctx: ctx, tripped: make(chan struct{})}
	if b.Timeout > 0 {
		g.deadline = time.Now().Add(b.Timeout)
	}
	return g
}

// SetInjector arms the governor with a fault injector (nil disarms).
func (g *Governor) SetInjector(inj *Injector) {
	if g != nil {
		g.inj = inj
	}
}

// Armed reports whether a fault injector is set.
func (g *Governor) Armed() bool { return g != nil && g.inj != nil }

// Budget returns the governed budget (zero value for a nil governor).
func (g *Governor) Budget() Budget {
	if g == nil {
		return Budget{}
	}
	return g.budget
}

// Err returns the sticky first trip, or nil.
func (g *Governor) Err() *TripError {
	if g == nil {
		return nil
	}
	return g.trip.Load()
}

// InputBytes returns the cumulative input consumed so far.
func (g *Governor) InputBytes() int64 {
	if g == nil {
		return 0
	}
	return g.input.Load()
}

// CacheBytes returns the cumulative reserved DFA cache bytes.
func (g *Governor) CacheBytes() int64 {
	if g == nil {
		return 0
	}
	return g.cache.Load()
}

// record makes t the sticky trip (first writer wins) and returns the
// winning trip, so every caller surfaces one consistent error. The first
// record also closes the tripped channel, waking any boundary parked in a
// stall fault.
func (g *Governor) record(t *TripError) *TripError {
	if g.trip.CompareAndSwap(nil, t) {
		if g.tripped != nil {
			close(g.tripped)
		}
		return t
	}
	return g.trip.Load()
}

// TripStalled records a watchdog-declared stall as the sticky trip: the
// named component stopped heartbeating for quiet. Returns the winning
// trip (which may be an earlier one). Nil-receiver safe.
func (g *Governor) TripStalled(site string, quiet time.Duration) *TripError {
	if g == nil {
		return nil
	}
	return g.record(&TripError{
		Budget: BudgetStalled,
		Actual: quiet.Nanoseconds(),
		Site:   site,
	})
}

// TripSignaled records a delivered SIGINT/SIGTERM as the sticky trip:
// every engine drains at its next chunk boundary and the run closes as a
// truncation. Returns the winning trip (which may be an earlier one).
// Nil-receiver safe.
func (g *Governor) TripSignaled(sig string) *TripError {
	if g == nil {
		return nil
	}
	return g.record(&TripError{Budget: BudgetSignaled, Site: sig})
}

// Remaining returns the budget left after the run so far: input bytes
// already consumed are subtracted (clamped to 1 so an exhausted-but-
// untripped budget still resumes governed rather than unlimited), and
// the wall-clock timeout shrinks to the time left on the deadline.
// Cache and active-set budgets are levels, not flows, so they carry over
// unchanged. A resumed run armed with Remaining() observes the same
// overall ceiling as the uninterrupted run.
func (g *Governor) Remaining() Budget {
	if g == nil {
		return Budget{}
	}
	b := g.budget
	if b.MaxInputBytes > 0 {
		b.MaxInputBytes -= g.input.Load()
		if b.MaxInputBytes < 1 {
			b.MaxInputBytes = 1
		}
	}
	if b.Timeout > 0 {
		b.Timeout = time.Until(g.deadline)
		if b.Timeout < time.Nanosecond {
			b.Timeout = time.Nanosecond
		}
	}
	return b
}

// stallHere blocks the calling goroutine at site until the governor
// trips — by the stall watchdog (TripStalled), the deadline, or context
// cancellation — and returns the winning trip. It simulates a hung
// worker for the `stall:` fault kind: unlike a panic or an immediate
// trip, the boundary genuinely stops making progress, which is exactly
// what the watchdog exists to detect.
func (g *Governor) stallHere(site string) *TripError {
	var deadlineC <-chan time.Time
	if !g.deadline.IsZero() {
		timer := time.NewTimer(time.Until(g.deadline))
		defer timer.Stop()
		deadlineC = timer.C
	}
	select {
	case <-g.tripped:
		return g.trip.Load()
	case <-g.ctx.Done():
		return g.record(&TripError{Budget: BudgetCanceled, Site: site, Cause: g.ctx.Err()})
	case <-deadlineC:
		return g.record(&TripError{
			Budget: BudgetDeadline,
			Limit:  int64(g.budget.Timeout),
			Site:   site,
			Cause:  context.DeadlineExceeded,
		})
	}
}

// Check is the cheap cooperative check: sticky trip, context, deadline.
func (g *Governor) Check() error {
	if g == nil {
		return nil
	}
	if t := g.trip.Load(); t != nil {
		return t
	}
	if err := g.ctx.Err(); err != nil {
		return g.record(&TripError{Budget: BudgetCanceled, Cause: err})
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return g.record(&TripError{
			Budget: BudgetDeadline,
			Limit:  int64(g.budget.Timeout),
			Cause:  context.DeadlineExceeded,
		})
	}
	return nil
}

// Inject fires the fault injector for site and folds any injected fault
// into the sticky trip. Injected panics propagate to the nearest
// parallel-worker boundary (which converts them to *parallel.PanicError).
func (g *Governor) Inject(site string) error {
	if g == nil {
		return nil
	}
	if err, stalled := g.inj.fire(site); err != nil {
		return g.record(err)
	} else if stalled {
		return g.stallHere(site)
	}
	if t := g.trip.Load(); t != nil {
		return t
	}
	return nil
}

// InjectIO fires the fault injector's `ioerr:` rules for site and
// reports whether an I/O fault should be simulated. Unlike Inject, a
// firing rule does not trip the run: I/O faults model transient write
// failures the caller retries or degrades around.
func (g *Governor) InjectIO(site string) bool {
	if g == nil {
		return false
	}
	return g.inj.FireIO(site)
}

// Boundary is the per-chunk cooperative checkpoint: fault injection,
// sticky trip, context/deadline, and input accounting in one call. n is
// the input bytes about to be consumed; the trip fires before they are,
// so a truncated run never scans past its budget by more than one chunk.
func (g *Governor) Boundary(site string, n int64) error {
	if g == nil {
		return nil
	}
	if err, stalled := g.inj.fire(site); err != nil {
		return g.record(err)
	} else if stalled {
		return g.stallHere(site)
	}
	if err := g.Check(); err != nil {
		return err
	}
	if n > 0 {
		total := g.input.Add(n)
		if g.budget.MaxInputBytes > 0 && total > g.budget.MaxInputBytes {
			g.input.Add(-n)
			return g.record(&TripError{
				Budget: BudgetInputBytes,
				Limit:  g.budget.MaxInputBytes,
				Actual: total,
				Site:   site,
			})
		}
	}
	return nil
}

// GrowCache reserves n DFA cache bytes. A false grant (with nil error)
// means the cache budget is exhausted: the caller must degrade (DFA→NFA
// fallback) and the reservation is not recorded — it is NOT a
// run-stopping trip. A non-nil error is a sticky trip (injected fault or
// a budget tripped elsewhere) and the run must stop.
func (g *Governor) GrowCache(site string, n int64) (bool, error) {
	if g == nil {
		return true, nil
	}
	if t := g.trip.Load(); t != nil {
		return false, t
	}
	total := g.cache.Add(n)
	if g.budget.MaxCacheBytes > 0 && total > g.budget.MaxCacheBytes {
		g.cache.Add(-n)
		return false, nil
	}
	return true, nil
}

// ReleaseCache returns previously reserved cache bytes (component
// fallback frees its interned states).
func (g *Governor) ReleaseCache(n int64) {
	if g == nil || n == 0 {
		return
	}
	g.cache.Add(-n)
}

// CheckActive trips when the NFA enabled-frontier size n exceeds the
// active-set budget.
func (g *Governor) CheckActive(n int64) error {
	if g == nil {
		return nil
	}
	if t := g.trip.Load(); t != nil {
		return t
	}
	if g.budget.MaxActiveSet > 0 && n > g.budget.MaxActiveSet {
		return g.record(&TripError{
			Budget: BudgetActiveSet,
			Limit:  g.budget.MaxActiveSet,
			Actual: n,
		})
	}
	return nil
}
