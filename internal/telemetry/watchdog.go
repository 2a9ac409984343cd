package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// StallReport is what the watchdog hands its callback when a component
// goes quiet: the stalled component's name, how long it has been silent,
// and a full goroutine stack dump taken at detection time.
type StallReport struct {
	Component  string
	QuietNanos int64
	Stacks     []byte
}

// Watchdog watches a Progress aggregator's per-component heartbeat
// timestamps and fires a callback once when any not-yet-done component
// has been quiet for longer than the configured period. Detection is
// clock-seam friendly: Poll does one check against the aggregator's
// injected clock (fake-clock testable), while Start runs Poll on a real
// ticker for production use.
//
// The watchdog fires at most once per run — a stalled process needs one
// stack dump, not a stream of them.
type Watchdog struct {
	prog    *Progress
	quiet   int64 // nanoseconds
	onStall func(StallReport)
	fired   atomic.Bool
	stop    chan struct{}
	mu      sync.Mutex
	started bool
}

// NewWatchdog returns a watchdog declaring a stall after quiet with no
// heartbeat. A nil Progress, non-positive quiet, or nil callback yields a
// nil watchdog (valid no-op receiver).
func NewWatchdog(p *Progress, quiet time.Duration, onStall func(StallReport)) *Watchdog {
	if p == nil || quiet <= 0 || onStall == nil {
		return nil
	}
	return &Watchdog{prog: p, quiet: quiet.Nanoseconds(), onStall: onStall, stop: make(chan struct{})}
}

// Poll performs one stall check using the aggregator's clock, firing the
// callback (once, ever) if the stalest live component has been quiet
// longer than the configured period. Returns true if the callback fired
// on this call.
func (w *Watchdog) Poll() bool {
	if w == nil || w.fired.Load() {
		return false
	}
	name, lastBeat, ok := w.prog.Stalest()
	if !ok {
		return false
	}
	w.prog.mu.Lock()
	now := w.prog.now()
	w.prog.mu.Unlock()
	q := now - lastBeat
	if q < w.quiet {
		return false
	}
	if !w.fired.CompareAndSwap(false, true) {
		return false
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	w.onStall(StallReport{Component: name, QuietNanos: q, Stacks: buf[:n]})
	return true
}

// Start launches the polling goroutine; the interval is a quarter of the
// quiet period, clamped to [10ms, 1s]. Calling Start more than once is a
// no-op. (time.NewTicker, not time.Now, drives the loop — the clock the
// stall decision reads is still the aggregator's injectable one.)
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.mu.Unlock()
	interval := time.Duration(w.quiet / 4)
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if w.Poll() {
					return
				}
			}
		}
	}()
}

// Stop terminates the polling goroutine. Safe to call multiple times and
// on a watchdog that was never started.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
}
