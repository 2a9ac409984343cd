package yara

import (
	"strings"
	"testing"

	"automatazoo/internal/sim"
)

const sampleRules = `
rule ExampleHex {
  strings:
    $a = { 9C 50 A1 ?? ( ?A | 66 ) 58 }
  condition: any of them
}
rule ExampleText {
  strings:
    $t = "malicious payload"
  condition: any of them
}
rule ExampleWide {
  strings:
    $w = "evil" wide
  condition: any of them
}
`

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(sampleRules)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules=%d", len(rules))
	}
	if rules[0].Name != "ExampleHex" || rules[0].Strings[0].Kind != KindHex {
		t.Fatalf("rule0=%+v", rules[0])
	}
	if rules[1].Strings[0].Kind != KindText || rules[1].Strings[0].Value != "malicious payload" {
		t.Fatalf("rule1=%+v", rules[1])
	}
	if !rules[2].Strings[0].Wide {
		t.Fatal("wide modifier lost")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"rule X { condition: true }", // no strings
		"rule Y { strings: $a = ??? \n condition:", // unbalanced
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) should fail", bad)
		}
	}
}

func TestHexToRegex(t *testing.T) {
	cases := []struct{ in, want string }{
		{"9C 50", `\x9c\x50`},
		{"9C ?? 50", `\x9c.\x50`},
		{"9C [2-4] 50", `\x9c.{2,4}\x50`},
		{"9C [3] 50", `\x9c.{3,3}\x50`},
		{"9C [-] 50", `\x9c.*\x50`},
		{"( 41 | 42 ) 43", `(\x41|\x42)\x43`},
		{"5?", `[\x50-\x5f]`},
	}
	for _, c := range cases {
		got, err := HexToRegex(c.in)
		if err != nil {
			t.Errorf("HexToRegex(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("HexToRegex(%q)=%q want %q", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"9", "9C [x] 50", "9C [5-2] 50", "ZZ"} {
		if _, err := HexToRegex(bad); err == nil {
			t.Errorf("HexToRegex(%q) should fail", bad)
		}
	}
}

func TestPaperExamplePattern(t *testing.T) {
	// The paper's example: 9C 50 A1 ?? (?A ?? 00 | 66 A9 D?) ?? 58 0F 85.
	rules, err := ParseRules(`rule Paper {
  strings:
    $x = { 9C 50 A1 ?? ( ?A ?? 00 | 66 A9 D? ) ?? 58 0F 85 }
  condition: any of them
}`)
	if err != nil {
		t.Fatal(err)
	}
	a, skipped, err := Compile(rules)
	if err != nil || skipped != 0 {
		t.Fatalf("compile: %v skipped=%d", err, skipped)
	}
	e := sim.New(a)
	// First alternative: ?A=0x3A, ??=0x11, 00.
	hit := []byte{0x9C, 0x50, 0xA1, 0x77, 0x3A, 0x11, 0x00, 0x99, 0x58, 0x0F, 0x85}
	e.Reset()
	if got := e.Run(hit).Reports; got != 1 {
		t.Fatalf("alt1 reports=%d", got)
	}
	// Second alternative: 66 A9 D?=0xD5.
	hit2 := []byte{0x9C, 0x50, 0xA1, 0x77, 0x66, 0xA9, 0xD5, 0x99, 0x58, 0x0F, 0x85}
	e.Reset()
	if got := e.Run(hit2).Reports; got != 1 {
		t.Fatalf("alt2 reports=%d", got)
	}
	// Nibble mismatch: ?A needs low nibble A.
	miss := []byte{0x9C, 0x50, 0xA1, 0x77, 0x3B, 0x11, 0x00, 0x99, 0x58, 0x0F, 0x85}
	e.Reset()
	if got := e.Run(miss).Reports; got != 0 {
		t.Fatalf("nibble miss matched: %d", got)
	}
}

func TestWideCompilation(t *testing.T) {
	rules, err := ParseRules(`rule W {
  strings:
    $w = "hi" wide
  condition: any of them
}`)
	if err != nil {
		t.Fatal(err)
	}
	a, skipped, err := Compile(rules)
	if err != nil || skipped != 0 {
		t.Fatalf("compile: %v skipped=%d", err, skipped)
	}
	e := sim.New(a)
	if got := e.Run([]byte{'h', 0, 'i', 0}).Reports; got != 1 {
		t.Fatalf("wide form not matched: %d", got)
	}
	e.Reset()
	if got := e.Run([]byte("hi")).Reports; got != 0 {
		t.Fatalf("narrow input matched wide rule: %d", got)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	rules := Generate(GenConfig{Rules: 40, WideFrac: 0.25}, 3)
	src := Format(rules)
	back, err := ParseRules(src)
	if err != nil {
		t.Fatalf("reparse: %v\nsource:\n%s", err, src)
	}
	if len(back) != len(rules) {
		t.Fatalf("round trip count %d != %d", len(back), len(rules))
	}
	for i := range rules {
		if back[i].Name != rules[i].Name ||
			back[i].Strings[0].Kind != rules[i].Strings[0].Kind ||
			back[i].Strings[0].Wide != rules[i].Strings[0].Wide {
			t.Fatalf("rule %d mismatch:\n in=%+v\nout=%+v", i, rules[i], back[i])
		}
	}
}

func TestGeneratedRulesCompile(t *testing.T) {
	rules := Generate(GenConfig{Rules: 150, WideFrac: 0.2}, 7)
	a, skipped, err := Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped=%d", skipped)
	}
	sizes, _ := a.Components()
	if len(sizes) != 150 {
		t.Fatalf("subgraphs=%d", len(sizes))
	}
	mean := float64(a.NumStates()) / 150
	if mean < 15 || mean > 90 {
		t.Fatalf("mean rule size %.1f outside Table-I ballpark (~44)", mean)
	}
}

func TestCorpusDetection(t *testing.T) {
	rules := Generate(GenConfig{Rules: 60, WideFrac: 0}, 9)
	// Pick hex/text rules to embed (regex strings can't be materialized).
	var embed []Rule
	var embedIdx []int32
	for i, r := range rules {
		if r.Strings[0].Kind != KindRegex && len(embed) < 4 {
			embed = append(embed, r)
			embedIdx = append(embedIdx, int32(i))
		}
	}
	corpus, err := Corpus(1<<17, embed, 11)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	found := map[int32]bool{}
	e.OnReport = func(r sim.Report) { found[r.Code] = true }
	e.Run(corpus)
	for _, idx := range embedIdx {
		if !found[idx] {
			t.Errorf("embedded rule %d not detected", idx)
		}
	}
}

func TestMalwareBodyMatchesOwnRule(t *testing.T) {
	rules := Generate(GenConfig{Rules: 40, WideFrac: 0.3}, 13)
	for i, r := range rules {
		if r.Strings[0].Kind == KindRegex {
			continue
		}
		body, err := MalwareBody(r)
		if err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		a, skipped, err := Compile([]Rule{r})
		if err != nil || skipped != 0 {
			t.Fatalf("rule %d compile: %v skipped=%d", i, err, skipped)
		}
		e := sim.New(a)
		if e.Run(body).Reports == 0 {
			t.Fatalf("rule %d (%s) does not match its own body %x",
				i, strings.TrimSpace(Format([]Rule{r})), body)
		}
	}
}
