package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
)

// fakeClock returns a deterministic clock advancing by step per call
// (atomic: forks share the parent's clock across goroutines).
func fakeClock(step int64) func() int64 {
	var t atomic.Int64
	return func() int64 {
		return t.Add(step)
	}
}

func TestSpanHierarchyAndTiming(t *testing.T) {
	s := NewSpans()
	s.SetClock(fakeClock(10)) // every call advances 10ns

	root := s.Start("run") // t=10
	b := root.Start("build")
	b.End() // start t=20, end t=30 → 10ns
	sc := root.Start("scan")
	sc.End()   // 10ns
	root.End() // start 10, end 60 → 50ns

	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Name != "run" {
		t.Fatalf("roots = %+v, want single 'run'", snap)
	}
	r := snap[0]
	if r.Nanos != 50 || r.Count != 1 {
		t.Errorf("run = %dns x%d, want 50ns x1", r.Nanos, r.Count)
	}
	if len(r.Children) != 2 || r.Children[0].Name != "build" || r.Children[1].Name != "scan" {
		t.Fatalf("children = %+v, want [build scan] in start order", r.Children)
	}
	for _, c := range r.Children {
		if c.Nanos != 10 || c.Count != 1 {
			t.Errorf("%s = %dns x%d, want 10ns x1", c.Name, c.Nanos, c.Count)
		}
	}
}

func TestSpanAggregatesRepeatedNames(t *testing.T) {
	s := NewSpans()
	s.SetClock(fakeClock(1))
	root := s.Start("run")
	for i := 0; i < 1000; i++ {
		sp := root.Start("scan")
		sp.End()
	}
	root.End()
	snap := s.Snapshot()
	if len(snap[0].Children) != 1 {
		t.Fatalf("repeated Start produced %d nodes, want 1 aggregated node", len(snap[0].Children))
	}
	c := snap[0].Children[0]
	if c.Count != 1000 {
		t.Errorf("count = %d, want 1000", c.Count)
	}
	if c.Nanos != 1000 { // each start/end pair spans exactly one tick
		t.Errorf("nanos = %d, want 1000", c.Nanos)
	}
}

func TestSpanRunningSnapshot(t *testing.T) {
	s := NewSpans()
	s.SetClock(fakeClock(10))
	sp := s.Start("open") // t=10
	// Snapshot while running: elapsed-so-far is reported.
	snap := s.Snapshot() // now() = 20 → 10ns elapsed
	if snap[0].Nanos != 10 {
		t.Errorf("running span snapshot = %dns, want 10", snap[0].Nanos)
	}
	sp.End()
}

func TestSpansForkAdoptDeterministic(t *testing.T) {
	s := NewSpans()
	s.SetClock(fakeClock(1))
	root := s.Start("parallel")
	forks := make([]*Spans, 4)
	for i := range forks {
		forks[i] = s.Fork()
	}
	var wg sync.WaitGroup
	for i := len(forks) - 1; i >= 0; i-- { // start in reverse to shuffle timing
		wg.Add(1)
		go func(f *Spans) {
			defer wg.Done()
			sp := f.Start("work")
			sp.End()
		}(forks[i])
	}
	wg.Wait()
	for _, f := range forks { // adopt in index order
		root.Adopt(f)
	}
	root.End()
	snap := s.Snapshot()
	if len(snap[0].Children) != 1 || snap[0].Children[0].Name != "work" {
		t.Fatalf("adopted children = %+v, want single aggregated 'work'", snap[0].Children)
	}
	if got := snap[0].Children[0].Count; got != 4 {
		t.Errorf("adopted count = %d, want 4", got)
	}
}

func TestSpansAdoptIntoCollectorRoots(t *testing.T) {
	a := NewSpans()
	a.SetClock(fakeClock(1))
	b := a.Fork()
	sp := b.Start("only_b")
	sp.End()
	a.Adopt(b)
	snap := a.Snapshot()
	if len(snap) != 1 || snap[0].Name != "only_b" || snap[0].Count != 1 {
		t.Fatalf("adopted roots = %+v, want [only_b x1]", snap)
	}
}

func TestNilSpansAreNoOps(t *testing.T) {
	var s *Spans
	s.SetClock(fakeClock(1)) // must not panic
	sp := s.Start("x")
	child := sp.Start("y")
	child.End()
	sp.Adopt(s.Fork())
	sp.End()
	s.Adopt(nil)
	if got := s.Snapshot(); got != nil {
		t.Errorf("nil Snapshot = %v, want nil", got)
	}
}

func TestNilSpansZeroAllocs(t *testing.T) {
	var s *Spans
	allocs := testing.AllocsPerRun(200, func() {
		sp := s.Start("scan")
		c := sp.Start("inner")
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}
