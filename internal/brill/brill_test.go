package brill

import (
	"testing"

	"automatazoo/internal/sim"
)

func TestPatternShape(t *testing.T) {
	r := Rule{ID: 0, PrevTag: 1, FromTag: 2, ToTag: 3, Word: "running"}
	p := r.Pattern()
	if p == "" {
		t.Fatal("empty pattern")
	}
	// Must reference both tag bytes and the word.
	if want := "running"; !contains(p, want) {
		t.Fatalf("pattern %q missing word", p)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRuleSiteDetection(t *testing.T) {
	r := Rule{ID: 0, PrevTag: 5, FromTag: 7, ToTag: 2, Word: "jump"}
	a, skipped, err := Compile([]Rule{r})
	if err != nil || skipped != 0 {
		t.Fatalf("compile: %v skipped=%d", err, skipped)
	}
	e := sim.New(a)
	// Site: token with tag 5, then token "jump" tagged 7.
	site := Encode([]Token{
		{Word: "the", Tag: 5},
		{Word: "jump", Tag: 7},
	})
	e.Reset()
	if got := e.Run(site).Reports; got != 1 {
		t.Fatalf("site not detected: %d", got)
	}
	// Wrong previous tag: no match.
	miss := Encode([]Token{
		{Word: "the", Tag: 6},
		{Word: "jump", Tag: 7},
	})
	e.Reset()
	if got := e.Run(miss).Reports; got != 0 {
		t.Fatalf("wrong-context match: %d", got)
	}
	// Wrong word: no match.
	miss2 := Encode([]Token{
		{Word: "the", Tag: 5},
		{Word: "jumps", Tag: 7},
	})
	e.Reset()
	if got := e.Run(miss2).Reports; got != 0 {
		t.Fatalf("wrong-word match: %d", got)
	}
}

func TestGenerateCompileScale(t *testing.T) {
	rules := Generate(200, 3)
	if len(rules) != 200 {
		t.Fatalf("rules=%d", len(rules))
	}
	for _, r := range rules {
		if r.FromTag == r.ToTag {
			t.Fatal("no-op rule generated")
		}
		if len(r.Word) != WordLen {
			t.Fatal("word length not fixed")
		}
	}
	a, skipped, err := Compile(rules)
	if err != nil || skipped != 0 {
		t.Fatalf("compile: %v skipped=%d", err, skipped)
	}
	sizes, _ := a.Components()
	if len(sizes) != 200 {
		t.Fatalf("subgraphs=%d", len(sizes))
	}
	// Near-uniform subgraphs (Table I std-dev 0.02).
	for _, s := range sizes {
		if s != sizes[0] {
			t.Fatalf("subgraph sizes vary: %d vs %d", s, sizes[0])
		}
	}
	mean := float64(a.NumStates()) / 200
	if mean < 14 || mean > 24 {
		t.Fatalf("mean rule size %.1f outside Table-I ballpark (~19)", mean)
	}
}

func TestCorpusPlantsSites(t *testing.T) {
	rules := Generate(20, 9)
	tokens := Corpus(3000, rules, 50, 4)
	if len(tokens) != 3000 {
		t.Fatalf("tokens=%d", len(tokens))
	}
	a, _, err := Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	st := e.Run(Encode(tokens))
	if st.Reports < 20 {
		t.Fatalf("planted sites under-detected: %d", st.Reports)
	}
}

func TestEncodeLayout(t *testing.T) {
	b := Encode([]Token{{Word: "hi", Tag: 4}})
	want := []byte{TagByte(4), 'h', 'i', Sep}
	if len(b) != len(want) {
		t.Fatalf("len=%d", len(b))
	}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("byte %d: %02x want %02x", i, b[i], want[i])
		}
	}
}
