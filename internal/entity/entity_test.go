package entity

import (
	"strings"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

func TestGenerateNamesUnique(t *testing.T) {
	names := GenerateNames(500, 1)
	if len(names) != 500 {
		t.Fatalf("names=%d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		k := n.Canonical()
		if seen[k] {
			t.Fatalf("duplicate name %q", k)
		}
		seen[k] = true
		if !strings.Contains(k, " ") {
			t.Fatalf("name %q lacks first/last structure", k)
		}
	}
}

func TestExactAndFuzzyMatch(t *testing.T) {
	n := Name{First: "joan", Last: "smithson"}
	b := automata.NewBuilder()
	if err := Build(b, n, 0); err != nil {
		t.Fatal(err)
	}
	a := b.MustBuild()
	e := sim.New(a)
	if got := e.Run([]byte("xx joan smithson yy")).Reports; got == 0 {
		t.Fatal("exact name not matched")
	}
	e.Reset()
	if got := e.Run([]byte("xx joan smitHson yy")).Reports; got == 0 {
		t.Fatal("single-typo name not matched (d=1)")
	}
	e.Reset()
	if got := e.Run([]byte("xx joAn smitHson yy")).Reports; got != 0 {
		t.Fatal("two-typo name matched (should exceed d=1)")
	}
}

func TestBenchmarkShape(t *testing.T) {
	names := GenerateNames(50, 7)
	a, err := Benchmark(names)
	if err != nil {
		t.Fatal(err)
	}
	sizes, _ := a.Components()
	if len(sizes) != 50 {
		t.Fatalf("subgraphs=%d", len(sizes))
	}
	mean := float64(a.NumStates()) / 50
	// Hamming d=1 over ~11-16 char names: 3l-1 ⇒ low 30s to high 40s.
	if mean < 25 || mean > 60 {
		t.Fatalf("mean name-filter size %.1f outside Table-I ballpark (~41)", mean)
	}
}

func TestCorruptKinds(t *testing.T) {
	rng := randx.New(3)
	n := Name{First: "abc", Last: "defg"}
	if Corrupt(n, Clean, rng) != "abc defg" {
		t.Fatal("clean corrupt changed name")
	}
	typo := Corrupt(n, Typo, rng)
	if typo == n.Canonical() || len(typo) != len(n.Canonical()) {
		t.Fatalf("typo wrong: %q", typo)
	}
	tr := Corrupt(n, Transpose, rng)
	if len(tr) != len(n.Canonical()) {
		t.Fatalf("transpose wrong: %q", tr)
	}
	rev := Corrupt(n, Reversed, rng)
	if rev != "defg, abc" {
		t.Fatalf("reversed wrong: %q", rev)
	}
}

func TestStreamFindsDuplicates(t *testing.T) {
	names := GenerateNames(30, 11)
	streamBytes := Stream(names, 30_000, 5)
	a, err := Benchmark(names)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	st := e.Run(streamBytes)
	if st.Reports == 0 {
		t.Fatal("no duplicates detected in stream")
	}
	// Typo'd duplicates must also be detected: build a stream of pure
	// typos for one name.
	rng := randx.New(9)
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.WriteString(Corrupt(names[0], Typo, rng))
		sb.WriteByte('\n')
	}
	e2 := sim.New(a)
	found := map[int32]bool{}
	e2.OnReport = func(r sim.Report) { found[r.Code] = true }
	e2.Run([]byte(sb.String()))
	if !found[0] {
		t.Fatal("typo'd duplicates of name 0 not resolved")
	}
}

func TestShortNameRejected(t *testing.T) {
	b := automata.NewBuilder()
	if err := Build(b, Name{First: "a", Last: "b"}, 0); err == nil {
		t.Fatal("too-short name accepted")
	}
}
