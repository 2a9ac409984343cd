package transform_test

import (
	"slices"
	"sort"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/core"
	"automatazoo/internal/difftest"
	"automatazoo/internal/randx"
	"automatazoo/internal/transform"
)

// prefixMergeReference is the pass-based PrefixMergeMapped the worklist
// pass replaced, kept as the oracle: every pass re-signs all n states with
// a freshly formatted string and merges each signature group into its
// lowest ID, until a pass merges nothing.
func prefixMergeReference(a *automata.Automaton) (*automata.Automaton, int, []automata.StateID) {
	n := a.NumStates()
	rep := make([]automata.StateID, n)
	for i := range rep {
		rep[i] = automata.StateID(i)
	}
	find := func(x automata.StateID) automata.StateID {
		for rep[x] != x {
			rep[x] = rep[rep[x]]
			x = rep[x]
		}
		return x
	}

	for {
		pred := make([][]automata.StateID, n)
		for s := 0; s < n; s++ {
			cs := find(automata.StateID(s))
			for _, t := range a.Succ(automata.StateID(s)) {
				ct := find(t)
				pred[ct] = append(pred[ct], cs)
			}
		}
		groups := map[string][]automata.StateID{}
		for s := 0; s < n; s++ {
			id := automata.StateID(s)
			if find(id) != id || a.Kind(id) == automata.KindCounter {
				continue
			}
			ps := pred[id]
			sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
			uniq := ps[:0]
			for i, p := range ps {
				if i == 0 || p != ps[i-1] {
					uniq = append(uniq, p)
				}
			}
			key := referenceSignature(a, id, uniq)
			groups[key] = append(groups[key], id)
		}
		merged := 0
		for _, g := range groups {
			for _, other := range g[1:] {
				rep[other] = g[0]
				merged++
			}
		}
		if merged == 0 {
			break
		}
	}

	b := automata.NewBuilder()
	newID := make([]automata.StateID, n)
	for i := range newID {
		newID[i] = automata.NoState
	}
	removed := 0
	for s := 0; s < n; s++ {
		id := automata.StateID(s)
		if find(id) != id {
			removed++
			continue
		}
		var nid automata.StateID
		if a.Kind(id) == automata.KindCounter {
			cfg, _ := a.CounterConfig(id)
			nid = b.AddCounter(cfg.Target, cfg.Mode)
		} else {
			nid = b.AddSTE(a.Class(id), a.Start(id))
		}
		if a.IsReport(id) {
			b.SetReport(nid, a.ReportCode(id))
		}
		newID[id] = nid
	}
	for s := 0; s < n; s++ {
		id := automata.StateID(s)
		from := newID[find(id)]
		for _, t := range a.Succ(id) {
			b.AddEdge(from, newID[find(t)])
		}
	}
	remap := make([]automata.StateID, n)
	for s := 0; s < n; s++ {
		remap[s] = newID[find(automata.StateID(s))]
	}
	return b.MustBuild(), removed, remap
}

func referenceSignature(a *automata.Automaton, id automata.StateID, pred []automata.StateID) string {
	buf := make([]byte, 0, 16+len(pred)*4)
	h := a.ClassHandle(id)
	buf = append(buf, byte(h), byte(h>>8), byte(h>>16), byte(h>>24))
	buf = append(buf, byte(a.Start(id)))
	if a.IsReport(id) {
		c := a.ReportCode(id)
		buf = append(buf, 1, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	} else {
		buf = append(buf, 0, 0, 0, 0, 0)
	}
	for _, p := range pred {
		buf = append(buf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	return string(buf)
}

// requireSameMerge runs both passes on a and fails unless they agree on
// removed, on remap, and on the output automaton state by state. It
// returns removed.
func requireSameMerge(t *testing.T, name string, a *automata.Automaton) int {
	t.Helper()
	want, wantRemoved, wantRemap := prefixMergeReference(a)
	got, gotRemoved, gotRemap := transform.PrefixMergeMapped(a)
	if gotRemoved != wantRemoved {
		t.Fatalf("%s: removed=%d, reference %d", name, gotRemoved, wantRemoved)
	}
	if !slices.Equal(gotRemap, wantRemap) {
		t.Fatalf("%s: remap differs from reference", name)
	}
	if got.NumStates() != want.NumStates() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d states/%d edges, reference %d/%d", name,
			got.NumStates(), got.NumEdges(), want.NumStates(), want.NumEdges())
	}
	for s := 0; s < want.NumStates(); s++ {
		id := automata.StateID(s)
		gc, _ := got.CounterConfig(id)
		wc, _ := want.CounterConfig(id)
		if got.Kind(id) != want.Kind(id) || gc != wc ||
			got.Class(id) != want.Class(id) || got.Start(id) != want.Start(id) ||
			got.IsReport(id) != want.IsReport(id) || got.ReportCode(id) != want.ReportCode(id) ||
			!slices.Equal(got.Succ(id), want.Succ(id)) {
			t.Fatalf("%s: state %d differs from reference", name, s)
		}
	}
	return gotRemoved
}

func TestPrefixMergeMatchesReferenceOnKernels(t *testing.T) {
	cfg := core.Config{Scale: 0.01, InputBytes: 256, Seed: 0xa20}
	for _, b := range core.All() {
		a, _, err := b.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		requireSameMerge(t, b.Name, a)
	}
}

func TestPrefixMergeMatchesReferenceOnRandomAutomata(t *testing.T) {
	// Two- and three-symbol alphabets and few reporters make signatures
	// collide often, so most trials merge and many need several rounds.
	merging := 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := randx.New(seed)
		cfg := difftest.GenConfig{
			States:     rng.IntRange(4, 80),
			Counters:   rng.Intn(4),
			MeanFanOut: 0.5 + 2*rng.Float64(),
			Density:    0.6,
			ReportFrac: 0.05,
			Alphabet:   []byte("abc")[:rng.IntRange(2, 3)],
		}
		if requireSameMerge(t, "seed", difftest.Generate(rng, cfg)) > 0 {
			merging++
		}
	}
	if merging < 100 {
		t.Fatalf("only %d of 200 random automata merged anything: the generator no longer exercises the pass", merging)
	}
}

// TestPrefixMergeAllocsPerState gates the integer-keyed worklist: the
// refinement itself allocates a fixed set of arrays, so what is left per
// state is the rebuild's Builder growing one successor slice per surviving
// state. Measured on this kernel (2 640 states, 7.15 edges per state): 2.70
// allocations per state; the string-keyed pass this replaced took 66.52.
func TestPrefixMergeAllocsPerState(t *testing.T) {
	b, err := core.ByName("Levenshtein 24x5")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := b.Build(core.Config{Scale: 0.01, InputBytes: 256, Seed: 0xa20})
	if err != nil {
		t.Fatal(err)
	}
	perState := testing.AllocsPerRun(3, func() { transform.PrefixMerge(a) }) / float64(a.NumStates())
	t.Logf("%d states, %.2f allocations per state", a.NumStates(), perState)
	if perState > 4 {
		t.Fatalf("PrefixMerge allocated %.2f objects per state; want <= 4", perState)
	}
}
