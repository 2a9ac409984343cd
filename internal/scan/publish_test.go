package scan

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/core"
	"automatazoo/internal/guard"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// anchorCount wraps a prefilter engine and keeps the anchor hits its
// Reset and RestoreState clear, so the hits of every scan it ran can be
// summed when the run ends.
type anchorCount struct {
	*prefilter.Engine
	mu      *sync.Mutex
	cleared *int64
}

func (e anchorCount) Reset() {
	e.keep()
	e.Engine.Reset()
}

func (e anchorCount) RestoreState(s *sim.StreamState) error {
	e.keep()
	return e.Engine.RestoreState(s)
}

func (e anchorCount) keep() {
	e.mu.Lock()
	*e.cleared += e.AnchorHits()
	e.mu.Unlock()
}

// captured builds engines through a scan factory and sums the prefilter
// engines' anchor hits over every engine it built.
type captured struct {
	mu      sync.Mutex
	cleared int64
	engines []anchorCount
}

func (c *captured) factory(t *testing.T, name string) func(*automata.Automaton) (segment.Engine, error) {
	newEngine, err := Factory(name)
	if err != nil {
		t.Fatal(err)
	}
	return func(a *automata.Automaton) (segment.Engine, error) {
		e, err := newEngine(a)
		pf, ok := e.(*prefilter.Engine)
		if err != nil || !ok {
			return e, err
		}
		w := anchorCount{Engine: pf, mu: &c.mu, cleared: &c.cleared}
		c.mu.Lock()
		c.engines = append(c.engines, w)
		c.mu.Unlock()
		return w, nil
	}
}

func (c *captured) anchorHits() int64 {
	n := c.cleared
	for _, e := range c.engines {
		n += e.AnchorHits()
	}
	return n
}

// TestEngineWorkPublished pins what the registry's engine counters mean in
// each layout, on the identities that are exact: a whole or a
// checkpointed, crashed and resumed scan publishes exactly the stream
// statistics; component slices scan every byte once per pass; a segmented
// scan's symbols add the warmup and replay bytes, and are the stream's
// when checkpointed chunks cascade their segments on one master engine
// (which no Reset or RestoreState zeroes between them); the dfa.* cache
// counters sum the
// run's cache profile; and prefilter.anchor_hits is every anchor hit of
// every engine the run built (a resumed run's are the whole run's: the
// checkpoint carries the killed process's share).
func TestEngineWorkPublished(t *testing.T) {
	b, err := core.ByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	a, streams, err := b.Build(core.Config{Scale: 0.02, InputBytes: 30000, Seed: 0xa20})
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, s := range streams {
		bytes += int64(len(s))
	}
	passes := int64(partition.ForWorkers(a, 2).Passes())
	if passes < 2 {
		t.Fatalf("kernel has %d slices at -j 2; the sliced layout is vacuous", passes)
	}
	for _, engine := range []string{"nfa", "prefilter", "dfa"} {
		var wholeHits int64
		for _, l := range []struct {
			name                      string
			workers, segments, warmup int
			checkpoint, crash         bool
		}{
			{"whole", 1, 1, 0, false, false},
			{"sliced", 2, 1, 0, false, false},
			{"segmented", 2, 3, 0, false, false},
			{"checkpointed", 1, 1, 0, true, true},
			{"cascaded-checkpointed", 2, 3, -1, true, false},
		} {
			layout := l.name
			name := engine + "/" + layout
			reg := telemetry.NewRegistry()
			var c captured
			sp := Spec{Hooks: segment.Hooks{Registry: reg, NewEngine: c.factory(t, engine)}, Workers: l.workers, Segments: l.segments, Warmup: l.warmup}
			if l.checkpoint {
				sp.Saver = &ckpt.Saver{Path: filepath.Join(t.TempDir(), "ck"), Interval: ckpt.ChunkAlign}
			}
			var res Result
			if l.crash {
				res = crashAndResume(t, a, streams, sp, reg)
			} else if res, err = Run(context.Background(), a, streams, sp); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Stats.Reports == 0 {
				t.Fatalf("%s: no reports; the test is vacuous", name)
			}
			counters := reg.Snapshot().Counters
			prefix := "sim."
			if engine == "dfa" {
				prefix = "dfa."
			}
			got := sim.Stats{
				Symbols: counters[prefix+"symbols"], Enabled: counters["sim.enabled"], Active: counters["sim.active"],
				CounterPulses: counters["sim.counter_pulses"], Reports: counters[prefix+"reports"],
			}
			want := res.Stats
			if engine == "dfa" {
				want = sim.Stats{Symbols: want.Symbols, Reports: want.Reports}
			}
			switch segmented := res.Stitch.Segments > 0; {
			case segmented:
				want = sim.Stats{Symbols: bytes + counters["segment.warmup_bytes"] + counters["segment.replay_bytes"]}
				got = sim.Stats{Symbols: got.Symbols}
				if counters["segment.warmup_bytes"] == 0 && l.warmup == 0 && engine != "dfa" {
					t.Errorf("%s: no warmup bytes; the segmented layout is vacuous", name)
				}
			case sp.Workers > 1 && !l.checkpoint:
				want.Symbols = passes * bytes
			}
			if got != want {
				t.Errorf("%s: registry %+v, want %+v", name, got, want)
			}
			if res.Cache != nil && !l.crash {
				gotCache := [3]int64{counters["dfa.cache_hits"], counters["dfa.cache_misses"], counters["dfa.cache_evictions"]}
				if wantCache := [3]int64{res.Cache.CacheHits, res.Cache.CacheMisses, res.Cache.CacheEvictions}; gotCache != wantCache {
					t.Errorf("%s: dfa.cache_{hits,misses,evictions} %v, Result.Cache %v", name, gotCache, wantCache)
				}
			}
			if engine != "prefilter" {
				continue
			}
			hits := c.anchorHits()
			switch layout {
			case "whole":
				wholeHits = hits
				if hits == 0 {
					t.Fatalf("%s: no anchor hits; the prefilter identity is vacuous", name)
				}
			case "checkpointed":
				hits = wholeHits // the crashed process's engines counted its share
			}
			if g := counters["prefilter.anchor_hits"]; g != hits {
				t.Errorf("%s: prefilter.anchor_hits %d, engines counted %d", name, g, hits)
			}
		}
	}
}

// crashAndResume runs sp checkpointed with a kill at the second save
// point, then resumes from the durable checkpoint into reg, the registry
// sp carries, and returns the resumed run's Result.
func crashAndResume(t *testing.T, a *automata.Automaton, streams [][]byte, sp Spec, reg *telemetry.Registry) Result {
	t.Helper()
	inj, err := guard.ParseInjector("crash:ckpt.save:2", 1)
	if err != nil {
		t.Fatal(err)
	}
	gov := guard.New(context.Background(), guard.Budget{})
	gov.SetInjector(inj)
	path := sp.Saver.Path
	crashed := sp
	crashed.Registry, crashed.Governor = telemetry.NewRegistry(), gov
	if _, err := Run(context.Background(), a, streams, crashed); guard.AsTrip(err) == nil || guard.AsTrip(err).Budget != guard.BudgetCrashed {
		t.Fatalf("crashed run: %v, want the injected crash", err)
	}
	ck, _, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Sim == nil {
		t.Fatal("the checkpoint lies on a stream boundary; the in-flight stream is not on trial")
	}
	sp.Registry, sp.Start = reg, ck
	sp.Saver = &ckpt.Saver{Path: path, Interval: ckpt.ChunkAlign}
	res, err := Run(context.Background(), a, streams, sp)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res
}
