package main

import (
	"bytes"
	"testing"

	"automatazoo/internal/core"
)

// The probe splits six kernels' construction into generate and compile by
// calling their loaders itself. This pins that recipe to internal/core's:
// same automaton, same stream, for the same configuration.
func TestLoadersMatchCore(t *testing.T) {
	cfg := core.Config{Scale: 0.004, InputBytes: 2048, Seed: 0xa20}
	for name, l := range loaders {
		b, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, streams, err := b.Build(cfg)
		if err != nil {
			t.Fatalf("%s: core build: %v", name, err)
		}
		rules, n := l.generate(cfg)
		if n == 0 {
			t.Errorf("%s: generator reported no patterns", name)
		}
		got, err := l.compile(rules)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stream, err := l.stream(cfg, rules)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumStates() != want.NumStates() || got.NumEdges() != want.NumEdges() || len(got.Reports()) != len(want.Reports()) {
			t.Errorf("%s: probe built %d states / %d edges / %d reports, core %d / %d / %d", name,
				got.NumStates(), got.NumEdges(), len(got.Reports()), want.NumStates(), want.NumEdges(), len(want.Reports()))
		}
		if len(streams) != 1 || !bytes.Equal(stream, streams[0]) {
			t.Errorf("%s: probe's stream differs from core's", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, StartNS: 50, EndNS: 60},
	}
	selfTimes(spans)
	for i, want := range []int64{20, 30, 40, 10} {
		if spans[i].SelfNS != want {
			t.Errorf("span %d: self %d ns, want %d", spans[i].ID, spans[i].SelfNS, want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.kernel = "k"
	root := tr.begin("kernel:k")
	a := tr.begin("scan")
	a.count("symbols", 7)
	a.end()
	b := tr.begin("merge")
	b.end()
	root.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 1 || tr.spans[2].Parent != 1 || tr.spans[0].Parent != 0 {
		t.Fatalf("wrong nesting: %+v", tr.spans)
	}
	if tr.spans[1].Counts["symbols"] != 7 || tr.spans[1].Kernel != "k" {
		t.Errorf("counts or kernel lost: %+v", tr.spans[1])
	}
	// The untraced run: a nil tracer and nil handles do nothing.
	var off *tracer
	h := off.begin("scan")
	h.count("symbols", 1)
	h.end()
}
