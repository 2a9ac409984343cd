package dfa

import (
	"bytes"
	"testing"

	"automatazoo/internal/hooks"
	"automatazoo/internal/telemetry"
)

// TestStatsZeroInput is the divide-by-zero hardening audit for the DFA
// engine's rate accessors: all must return 0, not NaN, on zero stats.
func TestStatsZeroInput(t *testing.T) {
	cases := []struct {
		name string
		fn   func(Stats) float64
	}{
		{"ReportRate", Stats.ReportRate},
		{"HitRate", Stats.HitRate},
		{"EvictionRate", Stats.EvictionRate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.fn(Stats{}); got != 0 {
				t.Errorf("%s on zero Stats = %v, want 0", tc.name, got)
			}
		})
	}
	// A fresh engine that consumed no input must also report all-zero
	// rates (no cache lookups have happened).
	e, err := New(compile(t, "abc"))
	if err != nil {
		t.Fatal(err)
	}
	st := e.Run(nil)
	if st.ReportRate() != 0 || st.HitRate() != 0 || st.EvictionRate() != 0 {
		t.Errorf("empty run rates = %v %v %v, want all 0",
			st.ReportRate(), st.HitRate(), st.EvictionRate())
	}
}

func TestCacheCounters(t *testing.T) {
	a := compile(t, "abc", "xyz+")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("abcxyzzz"), 50)
	e.Run(input)
	cold := e.CacheStats()
	if cold.CacheMisses == 0 {
		t.Fatal("cold run should subset-construct at least one transition")
	}
	if cold.ConstructNanos <= 0 {
		t.Error("subset-construction time not recorded")
	}
	if got := cold.CacheHits + cold.CacheMisses; got == 0 {
		t.Fatal("no cache lookups recorded")
	}
	// A warm re-run adds only hits: the miss count must not move and the
	// hit rate must rise.
	e.Reset()
	e.Run(input)
	warm := e.CacheStats()
	if warm.CacheMisses != cold.CacheMisses {
		t.Errorf("warm run added misses: %d -> %d", cold.CacheMisses, warm.CacheMisses)
	}
	if warm.HitRate() <= cold.HitRate() {
		t.Errorf("hit rate should improve when warm: %v -> %v", cold.HitRate(), warm.HitRate())
	}
	if warm.HitRate() < 0.5 || warm.HitRate() > 1 {
		t.Errorf("warm hit rate out of range: %v", warm.HitRate())
	}
	if warm.CacheEvictions != 0 || warm.EvictionRate() != 0 {
		t.Errorf("no overflow expected: evictions=%d", warm.CacheEvictions)
	}
}

func TestEvictionsOnOverflow(t *testing.T) {
	// A tiny budget forces the component into NFA fallback, which must be
	// recorded as evictions of the abandoned dstates.
	a := compile(t, "a[ab]*b[ab]{4}")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the budget below what the pattern needs.
	for _, c := range e.comps {
		c.budget = 2
	}
	tr := &cacheRecorder{}
	e.Attach(hooks.Set{Tracer: tr})
	e.Run(bytes.Repeat([]byte("aabbabab"), 20))
	st := e.CacheStats()
	if st.Fallbacks == 0 {
		t.Fatal("expected budget overflow")
	}
	if st.CacheEvictions == 0 {
		t.Error("overflow should record evicted dstates")
	}
	if st.EvictionRate() <= 0 {
		t.Error("eviction rate should be positive after overflow")
	}
	if tr.evicts == 0 {
		t.Error("tracer saw no eviction events")
	}
}

type cacheRecorder struct {
	misses, evicts, reports int
}

func (r *cacheRecorder) OnSymbol(int64, byte)          {}
func (r *cacheRecorder) OnActivate(int64, uint32)      {}
func (r *cacheRecorder) OnReport(int64, uint32, int32) { r.reports++ }
func (r *cacheRecorder) OnCacheEvent(_ int64, _ int, k telemetry.CacheEventKind) {
	switch k {
	case telemetry.CacheMiss:
		r.misses++
	case telemetry.CacheEviction:
		r.evicts++
	}
}

// TestTracerCacheEvents: the Tracer sees every cache miss Stats counts,
// and every report.
func TestTracerCacheEvents(t *testing.T) {
	a := compile(t, "abc")
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := &cacheRecorder{}
	e.Attach(hooks.Set{Tracer: tr})
	st := e.Run([]byte("zzabczzabc"))
	if int64(tr.misses) != st.CacheMisses {
		t.Errorf("traced misses = %d, stats say %d", tr.misses, st.CacheMisses)
	}
	if tr.reports != 2 {
		t.Errorf("traced reports = %d, want 2", tr.reports)
	}
}
