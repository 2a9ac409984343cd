package acmatch

import (
	"bytes"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/regex"
	"automatazoo/internal/sim"
)

// naiveMatches is the ground truth: all (pattern, end) pairs by brute
// force.
func naiveMatches(patterns [][]byte, input []byte) map[Match]int {
	out := map[Match]int{}
	for pi, p := range patterns {
		for i := 0; i+len(p) <= len(input); i++ {
			if bytes.Equal(input[i:i+len(p)], p) {
				out[Match{Pattern: pi, End: int64(i + len(p) - 1)}]++
			}
		}
	}
	return out
}

func checkAgainstNaive(t *testing.T, patterns [][]byte, input []byte) {
	t.Helper()
	m, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	got := map[Match]int{}
	m.ScanFunc(input, func(mt Match) { got[mt]++ })
	want := naiveMatches(patterns, input)
	if len(got) != len(want) {
		t.Fatalf("match sets differ: got %d want %d\ngot=%v\nwant=%v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("match %v: got %d want %d", k, got[k], v)
		}
	}
}

func TestBasics(t *testing.T) {
	patterns := [][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")}
	checkAgainstNaive(t, patterns, []byte("ushers in his house"))
}

func TestOverlappingAndNested(t *testing.T) {
	checkAgainstNaive(t, [][]byte{[]byte("aa"), []byte("aaa"), []byte("aaaa")},
		[]byte("aaaaaa"))
}

func TestSuffixOutputs(t *testing.T) {
	// "abcde" contains suffix pattern "cde" and "e".
	checkAgainstNaive(t, [][]byte{[]byte("abcde"), []byte("cde"), []byte("e")},
		[]byte("xxabcdexx"))
}

func TestDuplicatePatterns(t *testing.T) {
	m, err := Compile([][]byte{[]byte("ab"), []byte("ab")})
	if err != nil {
		t.Fatal(err)
	}
	var ms []Match
	m.ScanFunc([]byte("ab"), func(mt Match) { ms = append(ms, mt) })
	if len(ms) != 2 {
		t.Fatalf("duplicates should both report: %v", ms)
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := Compile([][]byte{{}}); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestCount(t *testing.T) {
	m, err := Compile([][]byte{[]byte("ab"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	counts := m.Count([]byte("abab"))
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("counts=%v", counts)
	}
	if m.lens[0] != 2 || m.lens[1] != 1 {
		t.Fatal("pattern lengths wrong")
	}
}

func TestBinaryPatterns(t *testing.T) {
	patterns := [][]byte{{0x00, 0xFF}, {0xFF, 0x00, 0xFF}}
	checkAgainstNaive(t, patterns, []byte{0xFF, 0x00, 0xFF, 0x00, 0xFF})
}

func TestQuickRandomized(t *testing.T) {
	rng := randx.New(91)
	for trial := 0; trial < 150; trial++ {
		np := 1 + rng.Intn(6)
		patterns := make([][]byte, np)
		for i := range patterns {
			p := make([]byte, 1+rng.Intn(5))
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			patterns[i] = p
		}
		input := make([]byte, rng.Intn(60))
		for i := range input {
			input[i] = byte('a' + rng.Intn(3))
		}
		checkAgainstNaive(t, patterns, input)
	}
}

// TestPrefixWeights checks the chain-state weight tables against brute
// force: walking the matcher over an input, active[state] must equal the
// number of (pattern, position) pairs whose prefix is a suffix of the
// consumed input, and enabled[state] the number of those pairs with a
// continuing position — exactly the frontier a literal-chain NFA carries.
func TestPrefixWeights(t *testing.T) {
	rng := randx.New(23)
	for trial := 0; trial < 60; trial++ {
		np := 1 + rng.Intn(5)
		patterns := make([][]byte, np)
		for i := range patterns {
			p := make([]byte, 1+rng.Intn(6))
			for j := range p {
				p[j] = byte('a' + rng.Intn(2))
			}
			patterns[i] = p
		}
		m, err := Compile(patterns)
		if err != nil {
			t.Fatal(err)
		}
		active, enabled, err := m.PrefixWeights(patterns)
		if err != nil {
			t.Fatal(err)
		}
		input := make([]byte, 1+rng.Intn(40))
		for i := range input {
			input[i] = byte('a' + rng.Intn(2))
		}
		state := int32(0)
		for i := range input {
			wantEnabled := int64(0)
			for _, p := range patterns {
				for d := 2; d <= len(p); d++ {
					if i-d+1 >= 0 && bytes.Equal(input[i-d+1:i], p[:d-1]) {
						wantEnabled++
					}
				}
			}
			if enabled[state] != wantEnabled {
				t.Fatalf("trial %d offset %d: enabled[%d]=%d want %d (patterns=%q input=%q)",
					trial, i, state, enabled[state], wantEnabled, patterns, input)
			}
			state = m.StepFrom(state, input[i], func(int) {})
			wantActive := int64(0)
			for _, p := range patterns {
				for d := 1; d <= len(p); d++ {
					if i-d+1 >= 0 && bytes.Equal(input[i-d+1:i+1], p[:d]) {
						wantActive++
					}
				}
			}
			if active[state] != wantActive {
				t.Fatalf("trial %d offset %d: active[%d]=%d want %d (patterns=%q input=%q)",
					trial, i, state, active[state], wantActive, patterns, input)
			}
		}
	}
}

func TestPrefixWeightsForeignPatternRejected(t *testing.T) {
	m, err := Compile([][]byte{[]byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PrefixWeights([][]byte{[]byte("xyz")}); err == nil {
		t.Fatal("foreign pattern set accepted")
	}
}

// Differential test: Aho–Corasick agrees with the homogeneous-automata NFA
// engine on literal rule sets (three independent engines, one semantics).
func TestAgreesWithNFAEngine(t *testing.T) {
	rng := randx.New(17)
	patterns := make([][]byte, 20)
	b := automata.NewBuilder()
	for i := range patterns {
		p := make([]byte, 2+rng.Intn(6))
		for j := range p {
			p[j] = byte('a' + rng.Intn(4))
		}
		patterns[i] = p
		parsed, err := regex.Parse(string(p), 0)
		if err == nil {
			_, err = regex.CompileInto(b, parsed, int32(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	a := b.MustBuild()
	input := make([]byte, 5000)
	for i := range input {
		input[i] = byte('a' + rng.Intn(4))
	}

	nfa := map[Match]int{}
	e := sim.New(a)
	e.OnReport = func(r sim.Report) { nfa[Match{Pattern: int(r.Code), End: r.Offset}]++ }
	e.Run(input)

	m, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	ac := map[Match]int{}
	m.ScanFunc(input, func(mt Match) { ac[mt]++ })

	if len(nfa) != len(ac) {
		t.Fatalf("engines disagree on match count: nfa=%d ac=%d", len(nfa), len(ac))
	}
	for k, v := range nfa {
		if ac[k] != v {
			t.Fatalf("engines disagree on %v: %d vs %d", k, v, ac[k])
		}
	}
}

func TestNumNodesBounded(t *testing.T) {
	patterns := [][]byte{[]byte("abc"), []byte("abd"), []byte("x")}
	m, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	// root + a,ab,abc,abd + x = 6.
	if m.NumNodes() != 6 {
		t.Fatalf("nodes=%d want 6", m.NumNodes())
	}
}
