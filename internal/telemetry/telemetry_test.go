package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>, rewriting with
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// fillRegistry populates a registry with a fixed, deterministic state.
func fillRegistry() *Registry {
	r := NewRegistry()
	r.Counter("sim.symbols").Add(1000)
	r.Counter("sim.active").Add(2345)
	r.Counter("sim.reports").Add(1)
	r.Gauge("dfa.states").Set(42)
	h := r.Histogram("sim.frontier", ExpBuckets(1, 4))
	for _, v := range []int64{0, 1, 1, 2, 3, 5, 8, 13, 100} {
		h.Observe(v)
	}
	return r
}

// TestMetricsGolden pins the metrics JSON snapshot schema: map keys sort,
// histogram buckets carry inclusive upper bounds with -1 for overflow.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fillRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden.json", buf.Bytes())
}

// TestTraceGolden pins the NDJSON trace event schema documented in
// doc.go: one object per line, fixed field order per event kind.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewNDJSON(&buf)
	tr.OnSymbol(0, 'h')
	tr.OnActivate(0, 7)
	tr.OnReport(0, 7, 1024)
	tr.OnSymbol(1, 0xff)
	tr.OnCacheEvent(1, 3, CacheMiss)
	tr.OnCacheEvent(2, 3, CacheEviction)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Events(); got != 6 {
		t.Errorf("events = %d, want 6", got)
	}
	checkGolden(t, "trace.golden.ndjson", buf.Bytes())
}

func TestTraceSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := NewNDJSON(&buf)
	tr.SampleEvery = 10
	for off := int64(0); off < 100; off++ {
		tr.OnSymbol(off, 'x')
		tr.OnActivate(off, 1)
	}
	tr.OnReport(55, 1, 2) // reports ignore sampling
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	// 10 sampled offsets × 2 events + 1 report.
	if lines != 21 {
		t.Errorf("trace lines = %d, want 21", lines)
	}
	if !strings.Contains(buf.String(), `{"ev":"report","off":55,"state":1,"code":2}`) {
		t.Error("report event missing or malformed")
	}
}

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h", ExpBuckets(1, 3)) != r.Histogram("h", nil) {
		t.Error("Histogram not idempotent")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("x").Add(1)
				r.Histogram("h", nil).Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("x").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{1, 10})
	if h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram should have zero mean/max")
	}
	for _, v := range []int64{1, 2, 3, 50} {
		h.Observe(v)
	}
	if h.Mean() != 14 {
		t.Errorf("mean = %v, want 14", h.Mean())
	}
	if h.Max() != 50 {
		t.Errorf("max = %v, want 50", h.Max())
	}
	s := r.Snapshot().Histograms["h"]
	// Buckets: ≤1 → 1 obs; ≤10 → 2 obs; overflow → 1 obs.
	want := []int64{1, 2, 1}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, want[i])
		}
	}
}

func TestHeatmapRanking(t *testing.T) {
	p := NewStateProfile(5)
	p.Activations[1] = 10
	p.Activations[3] = 30
	p.Activations[4] = 10
	comp := []int32{0, 0, 1, 1, 2}
	top := p.TopK(2, comp)
	if len(top) != 2 || top[0].State != 3 || top[0].Subgraph != 1 {
		t.Fatalf("TopK = %+v", top)
	}
	// Tie between states 1 and 4 breaks by ID.
	full := p.TopK(0, comp)
	if len(full) != 3 || full[1].State != 1 || full[2].State != 4 {
		t.Fatalf("tie-break wrong: %+v", full)
	}
	if full[0].Share != 0.6 {
		t.Errorf("share = %v, want 0.6", full[0].Share)
	}
	subs := p.TopSubgraphs(10, comp)
	if len(subs) != 3 || subs[0].Subgraph != 1 || subs[0].Activations != 30 {
		t.Fatalf("TopSubgraphs = %+v", subs)
	}
	// Merge combines profiles.
	q := NewStateProfile(5)
	q.Activations[0] = 5
	p.Merge(q)
	if p.Activations[0] != 5 || p.TotalActivations() != 55 {
		t.Errorf("merge failed: %+v", p.Activations)
	}
	var buf bytes.Buffer
	if err := WriteHeatmap(&buf, p.TopK(3, comp), 100); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Error("heatmap missing bars")
	}
}
