package telemetry

import (
	"reflect"
	"sync"
	"testing"
)

func fill(r *Registry, scale int64) {
	r.Counter("c.a").Add(3 * scale)
	r.Counter("c.b").Add(5 * scale)
	r.Gauge("g.a").Set(7 * scale)
	h := r.Histogram("h.a", ExpBuckets(1, 4))
	for i := int64(0); i < 10*scale; i++ {
		h.Observe(i % 9)
	}
}

func TestMergeIsCommutative(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	fill(a, 1)
	fill(b, 3)
	b.Counter("c.only_b").Add(1)
	b.Histogram("h.only_b", ExpBuckets(2, 3)).Observe(5)

	ab, ba := NewRegistry(), NewRegistry()
	ab.MergeFrom(a)
	ab.MergeFrom(b)
	ba.MergeFrom(b)
	ba.MergeFrom(a)
	if !reflect.DeepEqual(ab.Snapshot(), ba.Snapshot()) {
		t.Fatalf("merge is order-dependent:\nA,B: %+v\nB,A: %+v", ab.Snapshot(), ba.Snapshot())
	}

	s := ab.Snapshot()
	if s.Counters["c.a"] != 3+9 || s.Counters["c.b"] != 5+15 || s.Counters["c.only_b"] != 1 {
		t.Fatalf("counter sums wrong: %+v", s.Counters)
	}
	if s.Gauges["g.a"] != 21 { // max(7, 21)
		t.Fatalf("gauge merge must take max, got %d", s.Gauges["g.a"])
	}
	h := s.Histograms["h.a"]
	if h.Count != 40 {
		t.Fatalf("histogram count: %d", h.Count)
	}
}

func TestMergePreservesTotalsAcrossBoundShapes(t *testing.T) {
	src := NewRegistry()
	h := src.Histogram("h", []int64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 3, 7, 100} {
		h.Observe(v)
	}
	dst := NewRegistry()
	dst.Histogram("h", []int64{2, 16}) // coarser, different bounds
	dst.MergeFrom(src)
	got := dst.Snapshot().Histograms["h"]
	if got.Count != 5 || got.Sum != 111 || got.Max != 100 {
		t.Fatalf("totals must survive bound mismatch: %+v", got)
	}
	var bucketTotal int64
	for _, b := range got.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != 5 {
		t.Fatalf("bucket counts lost: %d", bucketTotal)
	}
}

// TestRegistrySharedAcrossGoroutines hammers one registry from many
// goroutines (metric creation, observation, merging, snapshotting at
// once); run under -race by `make ci`, it guards the concurrent-engine
// use the parallel harnesses rely on.
func TestRegistrySharedAcrossGoroutines(t *testing.T) {
	shared := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := NewRegistry()
			for i := 0; i < iters; i++ {
				shared.Counter("n").Add(1)
				shared.Gauge("g").Max(int64(i))
				shared.Histogram("h", ExpBuckets(1, 8)).Observe(int64(i))
				local.Counter("n").Add(1)
			}
			shared.MergeFrom(local)
			_ = shared.Snapshot()
		}()
	}
	wg.Wait()
	if got := shared.Counter("n").Value(); got != 2*workers*iters {
		t.Fatalf("lost updates: %d, want %d", got, 2*workers*iters)
	}
	if got := shared.Histogram("h", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count: %d", got)
	}
}
