package main

import (
	"math"
	"testing"

	"automatazoo/bench/catalog"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that looks measured")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); !near(got, 4) {
		t.Errorf("geomean(2,8,4) = %v, want 4", got)
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("geomean of nothing must be NaN")
	}
}

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2.0, 8.5},
		{[]float64{2.0, 2.2, 2.1, 2.05, 2.4, 1.9, 2.15, 2.3, 2.02, 2.08}, 2.015, 2.225},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestStreamRate(t *testing.T) {
	mbps, ok := streamMBps(catalog.Case{Cmd: "run", Input: 1_000_256}, 1.5, 0.5)
	if !ok || !near(mbps, 1.0) {
		t.Errorf("1 MB in 1 s beyond the twin = %v MB/s, ok=%v", mbps, ok)
	}
	mbps, ok = streamMBps(catalog.Case{Cmd: "table1", Input: 2048}, 3.0, 2.0)
	if !ok || !near(mbps, 22*2048/3.0/1e6) {
		t.Errorf("table1, gross: 22 streams over the whole run = %v MB/s, ok=%v", mbps, ok)
	}
	// A twin no faster than its run has no marginal rate: that is a failed
	// operation, never a negative or infinite throughput.
	for _, c := range [][2]float64{{0.5, 0.6}, {0.5, 0.5}, {math.NaN(), 0.1}} {
		for _, cmd := range []string{"run", "table1"} {
			if mbps, ok := streamMBps(catalog.Case{Cmd: cmd, Input: 1 << 20}, c[0], c[1]); ok {
				t.Errorf("%s: run %vs, twin %vs gave %v MB/s; want not ok", cmd, c[0], c[1], mbps)
			}
		}
	}
	if _, ok := streamMBps(catalog.Case{Cmd: "run", Input: 256}, 1, 0.5); ok {
		t.Error("a run no larger than its twin has no marginal bytes")
	}
}

func TestSlowTwinCountsAsFailure(t *testing.T) {
	cases := []catalog.Case{
		{Name: "good", Cmd: "run", Input: 1_000_256},
		{Name: "slow_twin", Cmd: "run", Input: 1_000_256},
	}
	res := &workloadResult{Metrics: map[string]float64{}, Attempted: 12, Cases: []*caseResult{
		{Name: "good", RunSamples: []float64{1.5, 1.9, 1.6}, TwinSample: []float64{0.6, 0.5, 0.7}, CPUSamples: []float64{1.1, 1, 1.2}, RSSSamples: []float64{10, 12, 11}},
		{Name: "slow_twin", RunSamples: []float64{0.5, 0.6, 0.7}, TwinSample: []float64{0.7, 0.6, 0.8}, CPUSamples: []float64{1, 1, 1}, RSSSamples: []float64{20, 19, 21}},
	}}
	summarise(res, cases)
	if res.Failed != 1 || res.Attempted != 13 {
		t.Errorf("failed %d of %d, want the slow twin counted as 1 more failed operation of 13", res.Failed, res.Attempted)
	}
	if res.FailRatio <= 0 {
		t.Error("fail_ratio did not rise")
	}
	if got := res.Metrics["stream_mbps"]; !near(got, 1.0) {
		t.Errorf("stream_mbps = %v: the slow twin must be left out, not averaged in", got)
	}
	if got := res.Metrics["run_s"]; !near(got, 2.0) {
		t.Errorf("run_s = %v, want the sum of the fastest repetitions 1.5 + 0.5", got)
	}
	if got := res.Metrics["setup_s"]; !near(got, 1.1) {
		t.Errorf("setup_s = %v, want the sum of the fastest twins 0.5 + 0.6", got)
	}
	if got := res.Metrics["cpu_s"]; !near(got, 2.0) {
		t.Errorf("cpu_s = %v, want 1 + 1", got)
	}
	if got := res.Metrics["peak_rss_mb"]; got != 21 {
		t.Errorf("peak_rss_mb = %v, want the largest RSS of any measured run", got)
	}
}
