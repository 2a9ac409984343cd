package telemetry

import (
	"bytes"
	"math"
	"testing"
)

func TestProgressBeatRateAndETA(t *testing.T) {
	var now int64
	p := NewProgress()
	p.SetClock(func() int64 { return now })
	tr := p.Tracker("k")
	tr.AddTotal(1000)

	now = 1e9 // 1 s after tracker creation
	tr.Beat(100, 5)
	s := p.Snapshot()
	if len(s) != 1 || s[0].Name != "k" {
		t.Fatalf("snapshot: %+v", s)
	}
	// One fold over 1 s at 100 B/s instantaneous: rate = w*inst, w = 1-e^-1.
	wantRate := (1 - math.Exp(-1)) * 100
	if math.Abs(s[0].BytesPerSec-wantRate) > 1e-9 {
		t.Errorf("rate = %v, want %v", s[0].BytesPerSec, wantRate)
	}
	if s[0].Bytes != 100 || s[0].TotalBytes != 1000 || s[0].Active != 5 {
		t.Errorf("counters: %+v", s[0])
	}
	wantETA := 900 / wantRate
	if math.Abs(s[0].ETASeconds-wantETA) > 1e-9 {
		t.Errorf("eta = %v, want %v", s[0].ETASeconds, wantETA)
	}

	// A beat with no clock movement (coarse clock) accumulates bytes into
	// the pending pool without disturbing the rate.
	tr.Beat(50, 3)
	s = p.Snapshot()
	if s[0].Bytes != 150 {
		t.Errorf("bytes = %d, want 150", s[0].Bytes)
	}
	if math.Abs(s[0].BytesPerSec-wantRate) > 1e-9 {
		t.Errorf("dt=0 beat moved the rate: %v", s[0].BytesPerSec)
	}

	// The pending pool folds on the next beat that advances the clock.
	now = 2e9
	tr.Beat(0, 3)
	s = p.Snapshot()
	if math.Abs(s[0].BytesPerSec-wantRate) < 1e-9 {
		t.Errorf("pending bytes never folded into the rate")
	}

	tr.Done()
	s = p.Snapshot()
	if !s[0].Done || s[0].ETASeconds != 0 {
		t.Errorf("done tracker: %+v", s[0])
	}
}

func TestProgressStalest(t *testing.T) {
	var now int64 = 10
	p := NewProgress()
	p.SetClock(func() int64 { return now })
	a := p.Tracker("a")
	now = 20
	b := p.Tracker("b")

	name, last, ok := p.Stalest()
	if !ok || name != "a" || last != 10 {
		t.Fatalf("stalest = %q %d %v, want a 10 true", name, last, ok)
	}
	a.Done()
	name, last, ok = p.Stalest()
	if !ok || name != "b" || last != 20 {
		t.Fatalf("after a done: %q %d %v, want b 20 true", name, last, ok)
	}
	b.Done()
	if _, _, ok := p.Stalest(); ok {
		t.Fatal("all done must yield ok=false")
	}
}

func TestProgressWriteJSONEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := NewProgress().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "[]\n" {
		t.Fatalf("empty progress JSON = %q, want []", got)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.SetClock(nil)
	if p.Tracker("x") != nil {
		t.Fatal("nil Progress must hand out nil trackers")
	}
	if p.Snapshot() != nil {
		t.Fatal("nil Progress snapshot must be nil")
	}
	if _, _, ok := p.Stalest(); ok {
		t.Fatal("nil Progress has nothing to stall on")
	}
	var tr *ProgressTracker
	tr.Beat(1, 1)
	tr.AddTotal(1)
	tr.AddCache(1)
	tr.AddFallbacks(1)
	tr.Done()
}
