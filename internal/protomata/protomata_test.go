package protomata

import (
	"strings"
	"testing"

	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

func TestToRegexBasics(t *testing.T) {
	cases := []struct{ in, want string }{
		{"C-A-T.", "CAT"},
		{"C-x-T.", "C[" + Alphabet + "]T"},
		{"[LIVM]-K.", "[LIVM]K"},
		{"C-x(2,4)-C.", "C[" + Alphabet + "]{2,4}C"},
		{"C-x(3)-C.", "C[" + Alphabet + "]{3}C"},
		{"<M-A.", "^MA"},
	}
	for _, c := range cases {
		got, err := ToRegex(c.in)
		if err != nil {
			t.Errorf("ToRegex(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ToRegex(%q)=%q want %q", c.in, got, c.want)
		}
	}
}

func TestToRegexNegatedClass(t *testing.T) {
	got, err := ToRegex("{AG}-K.")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got[:len(got)-1], "A") || strings.Contains(got[:len(got)-1], "G") {
		t.Fatalf("negated class contains excluded residues: %q", got)
	}
	if !strings.HasPrefix(got, "[") || !strings.HasSuffix(got, "K") {
		t.Fatalf("shape: %q", got)
	}
}

func TestToRegexErrors(t *testing.T) {
	for _, bad := range []string{"", "C--A.", "Z9.", "[].", "C-x(2,.", "C-(3)."} {
		if _, err := ToRegex(bad); err == nil {
			t.Errorf("ToRegex(%q) should fail", bad)
		}
	}
}

func TestMotifSearchSemantics(t *testing.T) {
	pats := []Pattern{{ID: "PS1", Pattern: "C-x(2,3)-[HK]-T."}}
	a, skipped, err := Compile(pats)
	if err != nil || skipped != 0 {
		t.Fatalf("compile: %v skipped=%d", err, skipped)
	}
	e := sim.New(a)
	if got := e.Run([]byte("AACGGHTAA")).Reports; got != 1 {
		t.Fatalf("C-x(2)-H-T should match: %d", got)
	}
	e.Reset()
	if got := e.Run([]byte("AACGHTAA")).Reports; got != 0 {
		t.Fatalf("gap of 1 should not match: %d", got)
	}
	e.Reset()
	if got := e.Run([]byte("AACGGGKTAA")).Reports; got != 1 {
		t.Fatalf("C-x(3)-K-T should match: %d", got)
	}
}

func TestGenerateCompiles(t *testing.T) {
	pats := Generate(300, 17)
	a, skipped, err := Compile(pats)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped=%d of generated patterns", skipped)
	}
	sizes, _ := a.Components()
	if len(sizes) != 300 {
		t.Fatalf("subgraphs=%d", len(sizes))
	}
	mean := float64(a.NumStates()) / 300
	if mean < 8 || mean > 35 {
		t.Fatalf("mean motif size %.1f outside plausible range", mean)
	}
}

func TestProteomePlantsMotifs(t *testing.T) {
	pats := Generate(40, 23)
	plant := pats[:5]
	db, err := Proteome(50_000, plant, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range db {
		if !strings.ContainsRune(Alphabet, rune(c)) {
			t.Fatalf("non-amino byte %q", c)
		}
	}
	a, _, err := Compile(pats)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	found := map[int32]bool{}
	e.OnReport = func(r sim.Report) { found[r.Code] = true }
	e.Run(db)
	for i := 0; i < 5; i++ {
		if !found[int32(i)] {
			t.Errorf("planted motif %d not found", i)
		}
	}
}

func TestMotifInstanceMatchesPattern(t *testing.T) {
	rng := randx.New(5)
	pats := Generate(30, 29)
	for _, p := range pats[:10] {
		inst, err := MotifInstance(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		a, skipped, err := Compile([]Pattern{p})
		if err != nil || skipped != 0 {
			t.Fatal(err)
		}
		e := sim.New(a)
		if e.Run(inst).Reports == 0 {
			t.Fatalf("instance %q does not match its own pattern %q", inst, p.Pattern)
		}
	}
}
