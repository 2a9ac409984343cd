package crispr

import (
	"bytes"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

func buildOne(t *testing.T, g Guide, style Style) *automata.Automaton {
	t.Helper()
	b := automata.NewBuilder()
	if err := BuildFilter(b, g, style, 0); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

// offsetsOf returns distinct reporting offsets.
func offsetsOf(a *automata.Automaton, input []byte) map[int64]bool {
	e := sim.New(a)
	out := map[int64]bool{}
	e.OnReport = func(r sim.Report) { out[r.Offset] = true }
	e.Run(input)
	return out
}

func guideOf(s string) Guide { return Guide{Spacer: []byte(s)} }

const spacer = "atgcatgcatgcatgcatgc" // 20 bp

func site(spacer, pam string) []byte { return []byte(spacer + pam) }

func TestExactSiteMatchesBothStyles(t *testing.T) {
	g := guideOf(spacer)
	input := append([]byte("tttt"), site(spacer, "agg")...)
	for _, style := range []Style{CasOFFinder, CasOT} {
		a := buildOne(t, g, style)
		got := offsetsOf(a, input)
		wantOffset := int64(4 + 20 + 3 - 1)
		if !got[wantOffset] {
			t.Errorf("%v: exact site not found, offsets=%v", style, got)
		}
	}
}

func TestPAMRequired(t *testing.T) {
	g := guideOf(spacer)
	input := site(spacer, "att") // not NGG
	for _, style := range []Style{CasOFFinder, CasOT} {
		a := buildOne(t, g, style)
		if got := offsetsOf(a, input); len(got) != 0 {
			t.Errorf("%v: matched without PAM: %v", style, got)
		}
	}
}

func TestSeedMismatchOFFvsOT(t *testing.T) {
	g := guideOf(spacer)
	// Mutate one base inside the seed (last 12 bp of the spacer).
	mut := []byte(spacer)
	mut[15] = 'a'
	if mut[15] == spacer[15] {
		mut[15] = 't'
	}
	input := site(string(mut), "tgg")
	off := buildOne(t, g, CasOFFinder)
	if got := offsetsOf(off, input); len(got) != 0 {
		t.Errorf("OFF should reject seed mismatch: %v", got)
	}
	ot := buildOne(t, g, CasOT)
	if got := offsetsOf(ot, input); len(got) == 0 {
		t.Error("OT should tolerate one seed mismatch")
	}
}

func TestTailMismatchBudgets(t *testing.T) {
	g := guideOf(spacer)
	mutate := func(n int) string {
		mut := []byte(spacer)
		for i := 0; i < n; i++ {
			if mut[i] == 'a' {
				mut[i] = 't'
			} else {
				mut[i] = 'a'
			}
		}
		return string(mut)
	}
	// 1 tail mismatch: both match.
	in1 := site(mutate(1), "ggg")
	if len(offsetsOf(buildOne(t, g, CasOFFinder), in1)) == 0 {
		t.Error("OFF should tolerate 1 tail mismatch")
	}
	if len(offsetsOf(buildOne(t, g, CasOT), in1)) == 0 {
		t.Error("OT should tolerate 1 tail mismatch")
	}
	// 2 tail mismatches: OFF rejects, OT matches.
	in2 := site(mutate(2), "ggg")
	if len(offsetsOf(buildOne(t, g, CasOFFinder), in2)) != 0 {
		t.Error("OFF should reject 2 tail mismatches")
	}
	if len(offsetsOf(buildOne(t, g, CasOT), in2)) == 0 {
		t.Error("OT should tolerate 2 tail mismatches")
	}
	// 3 tail mismatches: both reject.
	in3 := site(mutate(3), "ggg")
	if len(offsetsOf(buildOne(t, g, CasOT), in3)) != 0 {
		t.Error("OT should reject 3 tail mismatches")
	}
}

func TestFilterSizes(t *testing.T) {
	g := guideOf(spacer)
	off := buildOne(t, g, CasOFFinder)
	ot := buildOne(t, g, CasOT)
	// OFF: hamming(8,1)=8+1+14=23, exact seed 12, PAM 3 → 38 states.
	if off.NumStates() != 38 {
		t.Errorf("OFF states=%d want 38 (paper's design: 37)", off.NumStates())
	}
	// OT: hamming(8,2)=8+4+24=36, hamming(12,2)=12+4+40=56, PAM 3 → 95.
	if ot.NumStates() != 95 {
		t.Errorf("OT states=%d want 95 (paper's design: 101)", ot.NumStates())
	}
	if ot.NumStates() <= off.NumStates() {
		t.Error("OT must be larger than OFF")
	}
}

func TestBenchmarkShape(t *testing.T) {
	rng := randx.New(1)
	b := automata.NewBuilder()
	for i := 0; i < 20; i++ {
		if err := BuildFilter(b, RandomGuide(rng), CasOFFinder, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	a := b.MustBuild()
	sizes, _ := a.Components()
	if len(sizes) != 20 {
		t.Fatalf("subgraphs=%d", len(sizes))
	}
	if a.NumStates() != 20*38 {
		t.Fatalf("states=%d", a.NumStates())
	}
}

func TestInputPlantsSites(t *testing.T) {
	rng := randx.New(9)
	guides := []Guide{RandomGuide(rng), RandomGuide(rng)}
	input := Input(guides, 20000, 5)
	if len(input) != 20000 {
		t.Fatalf("input len=%d", len(input))
	}
	for _, c := range input {
		if !bytes.ContainsRune(mesh.DNA, rune(c)) {
			t.Fatalf("non-DNA byte %q in input", c)
		}
	}
	// Each guide's exact site must be findable by its OT filter.
	b := automata.NewBuilder()
	for i, g := range guides {
		if err := BuildFilter(b, g, CasOT, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	a := b.MustBuild()
	e := sim.New(a)
	found := map[int32]bool{}
	e.OnReport = func(r sim.Report) { found[r.Code] = true }
	e.Run(input)
	for i := range guides {
		if !found[int32(i)] {
			t.Errorf("guide %d: planted site not found", i)
		}
	}
}

func TestBadSpacerRejected(t *testing.T) {
	b := automata.NewBuilder()
	if err := BuildFilter(b, guideOf("short"), CasOFFinder, 0); err == nil {
		t.Fatal("short spacer accepted")
	}
}

func TestStyleString(t *testing.T) {
	if CasOFFinder.String() != "CasOFFinder" || CasOT.String() != "CasOT" {
		t.Fatal("style strings")
	}
}
