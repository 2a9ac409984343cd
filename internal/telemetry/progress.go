package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Progress aggregates live heartbeats from running engines, one tracker
// per kernel/component. It is the data source behind the /progress debug
// endpoint, the -progress stderr ticker, and the stall watchdog.
//
// Engines publish through a *ProgressTracker obtained from Tracker. The
// hot-path method, Beat, is a handful of atomic adds plus a short
// mutex-guarded EWMA fold and never allocates; a nil tracker is a valid
// no-op receiver, so the disabled path costs one predictable branch
// (asserted by the engines' allocguard tests, like every other hook).
type Progress struct {
	mu       sync.Mutex
	now      func() int64
	trackers map[string]*ProgressTracker
}

// NewProgress returns an empty aggregator using the real clock.
func NewProgress() *Progress {
	return &Progress{now: nowNanos, trackers: map[string]*ProgressTracker{}}
}

// SetClock replaces the aggregator's clock with now (nil restores the
// real clock). Trackers created afterwards inherit it; set the clock
// before instrumented work begins.
func (p *Progress) SetClock(now func() int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if now == nil {
		now = nowNanos
	}
	p.now = now
}

// Tracker returns the named tracker, creating it on first use (idempotent
// like Registry metric constructors). Creation counts as the tracker's
// first heartbeat. A nil receiver returns a nil tracker, which is itself
// a valid no-op.
func (p *Progress) Tracker(name string) *ProgressTracker {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.trackers[name]
	if !ok {
		t = &ProgressTracker{name: name, now: p.now}
		n := p.now()
		t.lastBeat.Store(n)
		t.rateLast = n
		p.trackers[name] = t
	}
	return t
}

// Snapshot copies every tracker's state, sorted by name.
func (p *Progress) Snapshot() []ProgressSnapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	trackers := make([]*ProgressTracker, 0, len(p.trackers))
	for _, t := range p.trackers {
		trackers = append(trackers, t)
	}
	p.mu.Unlock()
	out := make([]ProgressSnapshot, 0, len(trackers))
	for _, t := range trackers {
		out = append(out, t.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the snapshot as indented JSON (sorted by name, so the
// encoding is deterministic for a given state).
func (p *Progress) WriteJSON(w io.Writer) error {
	snap := p.Snapshot()
	if snap == nil {
		snap = []ProgressSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Stalest returns the name and last-heartbeat timestamp (in the
// aggregator's clock) of the not-yet-done tracker that has been quiet the
// longest. ok is false when every tracker is done (or none exist) — there
// is nothing to stall on.
func (p *Progress) Stalest() (name string, lastBeat int64, ok bool) {
	if p == nil {
		return "", 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	first := true
	for n, t := range p.trackers {
		if t.done.Load() {
			continue
		}
		lb := t.lastBeat.Load()
		if first || lb < lastBeat || (lb == lastBeat && n < name) {
			name, lastBeat, ok = n, lb, true
			first = false
		}
	}
	return name, lastBeat, ok
}

// ewmaTau is the EWMA time constant for the bytes/sec estimate: ~1 s, so
// the published rate reflects roughly the last second of throughput.
const ewmaTau = 1e9 // nanoseconds

// ProgressTracker is one component's live heartbeat state. All methods
// are nil-receiver-safe no-ops.
type ProgressTracker struct {
	name      string
	now       func() int64
	bytes     atomic.Int64
	total     atomic.Int64
	active    atomic.Int64
	cache     atomic.Int64
	fallbacks atomic.Int64
	done      atomic.Bool
	lastBeat  atomic.Int64

	mu       sync.Mutex
	rate     float64 // bytes/sec EWMA
	rateLast int64   // clock at last EWMA fold
	pending  int64   // bytes seen since rateLast (coarse-clock beats with dt==0)
}

// Beat records one chunk-boundary heartbeat: n more input bytes scanned
// and the current active-set size. Called from engine hot loops (once per
// ~4 KiB chunk), so it must not allocate.
func (t *ProgressTracker) Beat(n, active int64) {
	if t == nil {
		return
	}
	t.bytes.Add(n)
	t.active.Store(active)
	now := t.now()
	t.lastBeat.Store(now)
	t.mu.Lock()
	t.pending += n
	if dt := now - t.rateLast; dt > 0 {
		inst := float64(t.pending) * 1e9 / float64(dt)
		w := 1 - math.Exp(-float64(dt)/ewmaTau)
		t.rate += w * (inst - t.rate)
		t.rateLast = now
		t.pending = 0
	}
	t.mu.Unlock()
}

// AddTotal raises the expected-input-bytes total by n (drives ETA).
func (t *ProgressTracker) AddTotal(n int64) {
	if t == nil {
		return
	}
	t.total.Add(n)
}

// AddCache adjusts the live cache-bytes figure by delta (may be negative).
func (t *ProgressTracker) AddCache(delta int64) {
	if t == nil {
		return
	}
	t.cache.Add(delta)
}

// AddFallbacks adds delta NFA-fallback events.
func (t *ProgressTracker) AddFallbacks(delta int64) {
	if t == nil {
		return
	}
	t.fallbacks.Add(delta)
}

// Done marks the component finished; the watchdog stops watching it.
func (t *ProgressTracker) Done() {
	if t == nil {
		return
	}
	t.done.Store(true)
}

func (t *ProgressTracker) snapshot() ProgressSnapshot {
	t.mu.Lock()
	rate := t.rate
	t.mu.Unlock()
	s := ProgressSnapshot{
		Name:        t.name,
		Bytes:       t.bytes.Load(),
		TotalBytes:  t.total.Load(),
		BytesPerSec: rate,
		Active:      t.active.Load(),
		CacheBytes:  t.cache.Load(),
		Fallbacks:   t.fallbacks.Load(),
		Done:        t.done.Load(),
	}
	if !s.Done && rate > 0 && s.TotalBytes > s.Bytes {
		s.ETASeconds = float64(s.TotalBytes-s.Bytes) / rate
	}
	return s
}

// ProgressSnapshot is the serializable state of one tracker. ETASeconds
// is 0 when unknown (no rate yet, no total, or already done).
type ProgressSnapshot struct {
	Name        string  `json:"name"`
	Bytes       int64   `json:"bytes"`
	TotalBytes  int64   `json:"total_bytes"`
	BytesPerSec float64 `json:"bytes_per_sec"`
	Active      int64   `json:"active"`
	CacheBytes  int64   `json:"cache_bytes"`
	Fallbacks   int64   `json:"fallbacks"`
	ETASeconds  float64 `json:"eta_seconds"`
	Done        bool    `json:"done"`
}
