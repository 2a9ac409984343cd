package dfa

import (
	"context"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"automatazoo/internal/automata"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
)

// TestIdleSkipKeepsCacheStats: skipping idle components leaves the cache
// profile the every-component loop counts. On the dfa_cache kernels, at a
// scale where most signature components sit idle, under the default, the
// one-byte and a 4 KiB governor budget, the end-of-stream CacheStats
// (hits, misses, DFA states and the rest) and the report count equal
// refEngine's.
func TestIdleSkipKeepsCacheStats(t *testing.T) {
	if testing.Short() {
		t.Skip("scans eight kernels three times with the reference")
	}
	skipped := 0
	for _, name := range dfaCacheKernels {
		a, input := kernel(t, name, 0.02, 8192)
		for _, cfg := range []refConfig{refConfigs[0], {name: "one-byte", cacheBudget: 1}, {name: "4KiB", cacheBudget: 4096}} {
			e, ref := newGoverned(t, a, cfg), newRef(a, cfg)
			for _, b := range input {
				skipped += e.numLive() - stepped(e, b)
				e.Step(b)
				ref.stepByte(b)
			}
			got, want := e.CacheStats(), ref.CacheStats()
			got.ConstructNanos = 0
			if got != want {
				t.Errorf("%s/%s: stats %+v, reference %+v", name, cfg.name, got, want)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("vacuous: no idle component was skipped")
	}
}

// stepped is the number of components stepByte steps on b: the active ones
// and the idle ones b wakes.
func stepped(e *Engine, b byte) int {
	n, nw := 0, len(e.act)
	for w := range e.act {
		n += bits.OnesCount64(e.act[w] | e.idle[w]&e.wake[int(b)*nw+w])
	}
	return n
}

// TestWakeRowsTrackIdleTransitions holds the wake rows to their definition
// after a ClamAV scan that leaves some idle transitions unconstructed:
// component ci's bit (at its step position) in byte b's row is set exactly
// when b is in one of ci's start classes or ci's idle transition on b's
// class is uncached. Then an idle component with an unseen class is
// stepped on that class, a miss, until the transition is cached, and only
// then skipped.
func TestWakeRowsTrackIdleTransitions(t *testing.T) {
	a, input := kernel(t, "ClamAV", 0.02, 12<<10)
	e, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(input)
	check := func() (classes, unseen int, ci int, cls uint16) {
		ci = -1
		nw := len(e.act)
		for i, c := range e.comps {
			if len(c.allStarts) == 0 || c.overflow {
				continue
			}
			for k := 0; k < c.nClasses; k++ {
				uncached := c.trans[int(c.rest)*c.nClasses+k] == transUnset
				start := c.startBytes.Contains(c.classRep[k])
				classes++
				if uncached && !start {
					unseen++
					if p := e.pos[i]; ci < 0 && e.idle[p>>6]&(1<<(p&63)) != 0 {
						ci, cls = i, uint16(k)
					}
				}
				for b := 0; b < 256; b++ {
					if c.byteClass[b] != uint16(k) {
						continue
					}
					if set := e.wake[b*nw+int(e.pos[i])>>6]&(1<<(e.pos[i]&63)) != 0; set != (uncached || start) {
						t.Fatalf("component %d byte %d (class %d, start %v, uncached %v): wake bit %v", i, b, k, start, uncached, set)
					}
				}
			}
		}
		return classes, unseen, ci, cls
	}
	classes, unseen, ci, cls := check()
	t.Logf("%d of %d idle classes unseen", unseen, classes)
	if ci < 0 {
		t.Fatal("vacuous: no idle component has an unseen class")
	}
	c := e.comps[ci]
	b := c.classRep[cls]
	before := e.CacheStats()
	e.Step(b)
	after := e.CacheStats()
	if after.CacheMisses <= before.CacheMisses || c.trans[int(c.rest)*c.nClasses+int(cls)] == transUnset {
		t.Fatalf("component %d not stepped on its unseen class %d: misses %d → %d", ci, cls, before.CacheMisses, after.CacheMisses)
	}
	p := e.pos[ci]
	if e.idle[p>>6]&(1<<(p&63)) == 0 {
		t.Fatalf("component %d left idle on a non-start class", ci)
	}
	if e.wake[int(b)*len(e.act)+int(p>>6)]&(1<<(p&63)) != 0 {
		t.Fatalf("component %d still woken by byte %d once its idle transition is cached", ci, b)
	}
	if _, unseenAfter, _, _ := check(); unseenAfter >= unseen {
		t.Fatalf("unseen idle classes %d → %d after constructing one", unseen, unseenAfter)
	}
}

var ab = flag.Bool("ab", false, "run TestABStep, the in-process A/B of refEngine's every-component loop against Engine")

// TestABStep times refEngine's every-component loop (the A side) against
// Engine (B) on the dfa_cache kernels at the benchmark's scales and stream
// lengths: warm caches, A and B alternating, the fastest of 21 scans each.
// It logs ns/byte and asserts nothing about time. `make ab` runs it.
func TestABStep(t *testing.T) {
	if !*ab {
		t.Skip("in-process A/B timing; run with -ab (make ab)")
	}
	for _, k := range []struct {
		name  string
		scale float64
		input int
	}{
		{"Snort", 0.05, 48 << 10}, {"YARA Wide", 0.05, 48 << 10}, {"Brill", 0.05, 24 << 10},
		{"CRISPR CasOffinder", 0.05, 56 << 10}, {"File Carving", 0.05, 1 << 20},
		{"Hamming 18x3", 0.05, 16 << 10}, {"ClamAV", 0.02, 12 << 10}, {"Hamming 22x5", 0.05, 1 << 10},
	} {
		a, input := kernel(t, k.name, k.scale, k.input)
		e, err := New(a)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(a, refConfigs[0])
		scanA := func() {
			ref.Reset()
			for _, b := range input {
				ref.stepByte(b)
				ref.fired = ref.fired[:0]
			}
		}
		scanB := func() {
			e.Reset()
			e.Run(input)
		}
		// Each timed scan follows an untimed one of the same side, so both
		// find their tables in the CPU caches, not just interned.
		bestA, bestB := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < 21; r++ {
			scanA()
			bestA = min(bestA, timed(scanA))
			scanB()
			bestB = min(bestB, timed(scanB))
		}
		perByte := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(input)) }
		t.Logf("%-20s %5d components  every-component %9.1f ns/byte  engine %8.1f ns/byte  %6.2fx",
			k.name, len(e.comps), perByte(bestA), perByte(bestB), perByte(bestA)/perByte(bestB))
	}
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// idleComponents counts e's idle components.
func idleComponents(e *Engine) int {
	n := 0
	for _, w := range e.idle {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestPanicInConstructionKeepsCounts: a construction that panics under
// RunChecked (an injected fault) leaves the cache counters where the
// every-component loop stands at that miss: the components stepped before
// it in its byte counted their hits, the ones after did not. Random
// automata whose components die, so that fill reorders them within a
// byte, and two kernels with more than 64 components: Snort, whose
// components idle, and Random Forest A, whose components die.
func TestPanicInConstructionKeepsCounts(t *testing.T) {
	type sample struct {
		name  string
		a     *automata.Automaton
		input []byte
	}
	var samples []sample
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples = append(samples, sample{fmt.Sprint("seed ", seed), randomAutomaton(rng), randomInput(rng, 400)})
	}
	for _, k := range []struct {
		name  string
		scale float64
	}{{"Snort", 0.005}, {"Random Forest A", 0.02}} {
		a, input := kernel(t, k.name, k.scale, 4096)
		samples = append(samples, sample{k.name, a, input})
	}
	stops := 0
	for _, s := range samples {
		for _, n := range []int64{1, 2, 3, 7, 20, 60, 200} {
			ref := newRef(s.a, refConfigs[0])
			stopped := false
			for _, b := range s.input {
				if stopped = refStepUntil(ref, b, n); stopped {
					break
				}
			}
			inj, err := guard.ParseInjector(fmt.Sprintf("panic:dfa.construct:%d", n), 0)
			if err != nil {
				t.Fatal(err)
			}
			g := guard.New(context.Background(), guard.Budget{})
			g.SetInjector(inj)
			e := newGoverned(t, s.a, refConfigs[0])
			e.Attach(hooks.Set{Governor: g})
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				e.RunChecked(s.input)
				return false
			}()
			if panicked != stopped {
				t.Fatalf("%s, construction %d: engine panicked %v, reference reached it %v", s.name, n, panicked, stopped)
			}
			if !stopped {
				continue
			}
			stops++
			got, want := e.CacheStats(), ref.CacheStats()
			got.ConstructNanos = 0
			if got != want {
				t.Errorf("%s, panic at construction %d: stats %+v, reference %+v", s.name, n, got, want)
			}
		}
	}
	if stops == 0 {
		t.Fatal("vacuous: no construction panicked")
	}
}

// refStepUntil steps ref on byte b as its stepByte does, but stops at the
// miss that brings its miss count to n, counting it without constructing
// it: where an engine whose nth construction panics stands. It reports
// whether it stopped.
func refStepUntil(ref *refEngine, b byte, n int64) bool {
	ref.stats.Symbols++
	for i := 0; i < len(ref.live); {
		ci := ref.live[i]
		c := ref.comps[ci]
		di := ref.cur[ci]
		cls := c.byteClass[b]
		if c.dstates[di].trans[cls] == transUnset {
			if ref.stats.CacheMisses++; ref.stats.CacheMisses == n {
				return true
			}
			ref.computeTransition(c, di, cls)
			if c.overflow {
				ref.degrade(c, ci, c.dstates[di].frontier)
				ref.live = slices.Delete(ref.live, i, i+1)
				continue
			}
		} else {
			ref.stats.CacheHits++
		}
		d := &c.dstates[di]
		for _, code := range d.reports[cls] {
			ref.emit(code)
		}
		next := d.trans[cls]
		ref.cur[ci] = next
		if next == 0 && len(c.allStarts) == 0 {
			ref.live[i] = ref.live[len(ref.live)-1]
			ref.live = ref.live[:len(ref.live)-1]
			continue
		}
		i++
	}
	for _, ci := range ref.degraded {
		ref.nfaStep(ref.comps[ci], b)
	}
	ref.offset++
	return false
}

// TestFillKeepsListOrder: on Random Forest kernels, whose components die
// across many words of act, the engine steps, degrades and counts in the
// order of refEngine's swap-removed live list, under every reference
// configuration.
func TestFillKeepsListOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("scans two kernels under every reference configuration")
	}
	for _, name := range []string{"Random Forest A", "Random Forest C"} {
		a, input := kernel(t, name, 0.02, 4096)
		for _, cfg := range refConfigs {
			compareWithRef(t, a, cfg, input)
		}
	}
}
