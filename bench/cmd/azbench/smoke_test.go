package main

import (
	"math"
	"testing"

	"automatazoo/bench/catalog"
)

// TestSmoke drives the real binaries end to end at minimum size: one tiny
// case per workload and every probe once. It checks the plumbing — every
// catalogued metric is emitted exactly once (the probe reports a duplicate
// as an error), finite and not negative, and no operation fails — not the
// numbers. Skipped under -short: it builds azoo and azprobe.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs azoo and azprobe")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 0xa20, seconds: 1, smoke: true, label: "smoke", outDir: t.TempDir()}
	r, env, cleanup, err := newRunner(root, o)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res, err := measure(root, r, env, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeResult(o, res); err != nil {
		t.Fatal(err)
	}

	if len(res.Workloads) != len(catalog.Workloads) {
		t.Fatalf("%d workloads ran, the catalogue has %d", len(res.Workloads), len(catalog.Workloads))
	}
	for _, w := range res.Workloads {
		for _, f := range w.Failures {
			t.Errorf("%s: %s", w.Name, f)
		}
		for _, m := range catalog.EndToEnd {
			v, ok := w.Metrics[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want finite and positive", w.Name, m.Name, v, ok)
			}
		}
		line, complete := harnessLine(catalog.EndToEnd, w.Metrics, w.Attempted, w.Failed)
		if !complete {
			t.Errorf("%s: harness line incomplete: %s", w.Name, line)
		}
	}

	l := res.Layers
	if l == nil {
		t.Fatal("no per-layer result")
	}
	if l.ProbeError != "" {
		t.Errorf("probe: %s", l.ProbeError)
	}
	for _, name := range l.Absent {
		t.Errorf("per-layer metric %s absent", name)
	}
	want := map[string]bool{}
	for _, m := range catalog.PerLayer() {
		want[m.Name] = true
		if v, ok := l.Metrics[m.Name]; ok && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
			t.Errorf("per-layer metric %s = %v, want finite and not negative", m.Name, v)
		}
	}
	for name := range l.Metrics {
		if !want[name] {
			t.Errorf("probe emitted %s, which the catalogue does not list", name)
		}
	}
	if a, f := res.totals(); f != 0 || a == 0 {
		t.Errorf("%d of %d operations failed", f, a)
	}
}
