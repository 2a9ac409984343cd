package dfa

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/hooks"
	"automatazoo/internal/telemetry"
)

// TestFoldedBytesMatchPerByteCharge holds the folded byte meter to a
// per-byte one kept by the test: before every byte, each live or degraded
// component is owed the byte. Random automata die (start-of-data
// components reach the dead state) and, under the reference
// configurations' budgets, degrade mid-stream; between bytes the test
// flushes, resets, restores a snapshot and re-attaches a fresh ledger, and
// after every flush the committed totals must equal what is owed.
func TestFoldedBytesMatchPerByteCharge(t *testing.T) {
	var died, degraded bool
	for _, cfg := range refConfigs {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := randomAutomaton(rng)
			input := randomInput(rng, 1200)
			t.Run(fmt.Sprintf("%s/random-%d", cfg.name, seed), func(t *testing.T) {
				e := newGoverned(t, a, cfg)
				coll := attr.NewCollector(a, attr.FromComponents(a, "c"))
				led := coll.Ledger(coll.GlobalCompOf())
				e.Attach(hooks.Set{Governor: e.h.Governor, Ledger: led})
				owed := make([]int64, len(coll.Totals().Bytes))
				check := func(i int) {
					t.Helper()
					led.Commit()
					if got := coll.Totals().Bytes; !slices.Equal(got, owed) {
						t.Fatalf("before byte %d: folded bytes %v, per-byte charge %v", i, got, owed)
					}
				}
				for i, b := range input {
					switch rng.Intn(64) {
					case 0:
						e.Flush()
						check(i)
					case 1:
						e.Reset()
						check(i)
					case 2:
						if err := e.RestoreState(e.CaptureState()); err != nil {
							t.Fatal(err)
						}
						check(i)
					case 3:
						// The old ledger is folded at the attach; the new
						// one is charged from here on.
						old := led
						led = coll.Ledger(coll.GlobalCompOf())
						e.Attach(hooks.Set{Governor: e.h.Governor, Ledger: led})
						old.Commit()
						check(i)
					}
					for _, ci := range e.live {
						owed[e.ledSlot[ci]]++
					}
					for _, ci := range e.degraded {
						owed[e.ledSlot[ci]]++
					}
					live := len(e.live)
					e.Step(b)
					died = died || len(e.live) < live && len(e.degraded) == 0
					degraded = degraded || len(e.degraded) > 0 && i > 0
				}
				e.Flush()
				check(len(input))
			})
		}
	}
	if !died || !degraded {
		t.Fatalf("vacuous: a component died %v, degraded mid-stream %v", died, degraded)
	}
}

// missTracer counts the traced cache misses per component.
type missTracer struct{ misses []int64 }

func (m *missTracer) OnSymbol(int64, byte)          {}
func (m *missTracer) OnActivate(int64, uint32)      {}
func (m *missTracer) OnReport(int64, uint32, int32) {}
func (m *missTracer) OnCacheEvent(_ int64, comp int, k telemetry.CacheEventKind) {
	if k == telemetry.CacheMiss {
		m.misses[comp]++
	}
}

// TestFallbackWorkMatchesPerByteCharge holds the ledger's work units to a
// per-byte account kept by the test: one per cache miss of a component,
// and, each byte the fallback steps, one per state on its frontier (the
// frontier it carried into the byte plus those handed over by components
// degrading within it) and one per degraded component.
func TestFallbackWorkMatchesPerByteCharge(t *testing.T) {
	var fellBack bool
	for _, cfg := range refConfigs[1:] {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := randomAutomaton(rng)
			input := randomInput(rng, 600)
			t.Run(fmt.Sprintf("%s/random-%d", cfg.name, seed), func(t *testing.T) {
				e := newGoverned(t, a, cfg)
				coll := attr.NewCollector(a, attr.FromComponents(a, "c"))
				led := coll.Ledger(coll.GlobalCompOf())
				tr := &missTracer{misses: make([]int64, len(e.comps))}
				e.Attach(hooks.Set{Governor: e.h.Governor, Ledger: led, Tracer: tr})
				owed := make([]int64, len(coll.Totals().Work))
				for _, b := range input {
					var carried []automata.StateID
					if e.fb != nil {
						carried = e.fb.FrontierSnapshot()
					}
					handed := map[int32]int{}
					for _, ci := range e.live {
						handed[ci] = len(e.comps[ci].frontierOf(e.cur[ci]))
					}
					n := len(e.degraded)
					e.Step(b)
					if len(e.degraded) == 0 {
						continue
					}
					fellBack = true
					for _, s := range carried {
						owed[e.ledSlot[e.compOf[s]]]++
					}
					for _, ci := range e.degraded[n:] {
						owed[e.ledSlot[ci]] += int64(handed[ci])
					}
					for _, ci := range e.degraded {
						owed[e.ledSlot[ci]]++
					}
				}
				for ci, m := range tr.misses {
					owed[e.ledSlot[ci]] += m
				}
				e.Flush()
				led.Commit()
				if got := coll.Totals().Work; !slices.Equal(got, owed) {
					t.Fatalf("work %v, per-byte account %v", got, owed)
				}
			})
		}
	}
	if !fellBack {
		t.Fatal("vacuous: nothing fell back")
	}
}
