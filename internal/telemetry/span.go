package telemetry

import (
	"sync"
)

// Spans collects a tree of named phase spans — the wall-clock breakdown
// (build / transform / partition / run / merge) behind a run report's
// per-phase timing columns.
//
// Two properties shape the design:
//
//   - Repeated phases aggregate. Starting a name that already exists under
//     the same parent re-times the existing span and accumulates into it
//     (Nanos sums, Count increments), so a segmented workload that calls an
//     engine ten thousand times produces one "sim.run" span with
//     Count == 10000, not ten thousand tree nodes.
//   - Child ordering is deterministic: children appear in first-start
//     order, which is execution order for sequential code and adoption
//     order (see Adopt) for parallel sections.
//
// A nil *Spans and a nil *Span are valid no-op receivers: instrumented
// code calls Start/End unconditionally and the disabled path costs a nil
// check with zero allocations (asserted by the engines' allocguard tests).
//
// The clock is injectable (SetClock) so run-report artifacts can be made
// byte-deterministic in golden tests.
type Spans struct {
	mu    sync.Mutex
	now   func() int64
	roots *Span // sentinel holding the root children
}

// NewSpans returns an empty span collector using the real clock.
func NewSpans() *Spans {
	s := &Spans{now: nowNanos}
	s.roots = &Span{set: s}
	return s
}

// SetClock replaces the collector's clock with now (nil restores the real
// clock). Forked collectors created afterwards inherit the clock; set it
// before instrumented work begins.
func (s *Spans) SetClock(now func() int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if now == nil {
		now = nowNanos
	}
	s.now = now
}

// Fork returns a new empty collector sharing s's clock. Parallel sections
// give each worker a fork and Adopt them in index order after the barrier,
// which keeps final child ordering deterministic regardless of scheduling
// (the same pattern Registry.Merge uses for metrics).
func (s *Spans) Fork() *Spans {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	now := s.now
	s.mu.Unlock()
	f := &Spans{now: now}
	f.roots = &Span{set: f}
	return f
}

// Start begins (or re-times, see the aggregation rule above) a root span.
func (s *Spans) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.roots.Start(name)
}

// Adopt merges another collector's root spans into s's roots, name-wise:
// a root of other with no same-named root in s is appended; same-named
// spans accumulate (Nanos, Count) and merge children recursively. other is
// left untouched; a nil receiver or argument is a no-op.
func (s *Spans) Adopt(other *Spans) {
	if s == nil || other == nil {
		return
	}
	other.mu.Lock()
	snap := other.roots.snapshotChildren(other.nowLocked())
	other.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roots.absorb(snap)
}

func (s *Spans) nowLocked() func() int64 { return s.now }

// Snapshot returns a deep copy of the span tree, children in first-start
// order. Spans still running are reported with the time elapsed so far.
func (s *Spans) Snapshot() []SpanSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.roots.snapshotChildren(s.now)
}

// Span is one named node of a phase-span tree. All methods are nil-safe
// no-ops, so callers never guard instrumentation sites.
type Span struct {
	owner    *Span
	set      *Spans // only on the sentinel root
	name     string
	nanos    int64
	count    int64
	start    int64
	running  bool
	children []*Span
	byName   map[string]*Span
}

// spansOf walks up to the owning collector.
func (sp *Span) spansOf() *Spans {
	for sp.owner != nil {
		sp = sp.owner
	}
	return sp.set
}

// Start begins (or re-times) the named child span. Calling Start on a
// span that is already running is allowed for a *different* name; starting
// the same name again before End restarts its clock.
func (sp *Span) Start(name string) *Span {
	if sp == nil {
		return nil
	}
	set := sp.spansOf()
	set.mu.Lock()
	defer set.mu.Unlock()
	c, ok := sp.byName[name]
	if !ok {
		c = &Span{owner: sp, name: name}
		if sp.byName == nil {
			sp.byName = map[string]*Span{}
		}
		sp.byName[name] = c
		sp.children = append(sp.children, c)
	}
	c.start = set.now()
	c.running = true
	c.count++
	return c
}

// End stops the span, accumulating the elapsed wall time since its Start.
// Ending a span that is not running is a no-op.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	set := sp.spansOf()
	set.mu.Lock()
	defer set.mu.Unlock()
	if !sp.running {
		return
	}
	sp.running = false
	sp.nanos += set.now() - sp.start
}

// Adopt merges another collector's roots as children of sp (the parallel
// fan-out pattern: fork per worker, adopt under the phase span in index
// order). See Spans.Adopt for the merge rule.
func (sp *Span) Adopt(other *Spans) {
	if sp == nil || other == nil {
		return
	}
	other.mu.Lock()
	snap := other.roots.snapshotChildren(other.nowLocked())
	other.mu.Unlock()
	set := sp.spansOf()
	set.mu.Lock()
	defer set.mu.Unlock()
	sp.absorb(snap)
}

// absorb folds snapshot nodes into sp's children, merging by name.
// Caller holds the collector lock.
func (sp *Span) absorb(snap []SpanSnapshot) {
	for _, n := range snap {
		c, ok := sp.byName[n.Name]
		if !ok {
			c = &Span{owner: sp, name: n.Name}
			if sp.byName == nil {
				sp.byName = map[string]*Span{}
			}
			sp.byName[n.Name] = c
			sp.children = append(sp.children, c)
		}
		c.nanos += n.Nanos
		c.count += n.Count
		c.absorb(n.Children)
	}
}

// snapshotChildren copies sp's children. Caller holds the collector lock;
// now computes elapsed time for still-running spans.
func (sp *Span) snapshotChildren(now func() int64) []SpanSnapshot {
	if len(sp.children) == 0 {
		return nil
	}
	out := make([]SpanSnapshot, len(sp.children))
	for i, c := range sp.children {
		n := c.nanos
		if c.running {
			n += now() - c.start
		}
		out[i] = SpanSnapshot{
			Name:     c.name,
			Nanos:    n,
			Count:    c.count,
			Children: c.snapshotChildren(now),
		}
	}
	return out
}

// SpanSnapshot is the serializable form of one span-tree node. Count is
// the number of Start calls aggregated into the node.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Nanos    int64          `json:"nanos"`
	Count    int64          `json:"count"`
	Children []SpanSnapshot `json:"children,omitempty"`
}
