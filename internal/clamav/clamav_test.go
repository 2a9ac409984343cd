package clamav

import (
	"testing"

	"automatazoo/internal/regex"
	"automatazoo/internal/sim"
)

func TestToRegexLiteral(t *testing.T) {
	pat, err := ToRegex("4142ff")
	if err != nil {
		t.Fatal(err)
	}
	if pat != `\x41\x42\xff` {
		t.Fatalf("pat=%q", pat)
	}
}

func TestToRegexWildcardsAndGaps(t *testing.T) {
	cases := []struct{ hex, want string }{
		{"41??42", `\x41.\x42`},
		{"41*42", `\x41.*\x42`},
		{"41{3-5}42", `\x41.{3,5}\x42`},
		{"41{4}42", `\x41.{4,4}\x42`},
		{"41{2-}42", `\x41.{2,}\x42`},
		{"41{-6}42", `\x41.{0,6}\x42`},
		{"(41|42)43", `(\x41|\x42)\x43`},
		{"4?", `[\x40-\x4f]`},
	}
	for _, c := range cases {
		got, err := ToRegex(c.hex)
		if err != nil {
			t.Errorf("ToRegex(%q): %v", c.hex, err)
			continue
		}
		if got != c.want {
			t.Errorf("ToRegex(%q)=%q want %q", c.hex, got, c.want)
		}
	}
}

func TestToRegexErrors(t *testing.T) {
	for _, bad := range []string{"4", "4g", "41{3-1}42", "41{xx}42", "41{3-542"} {
		if _, err := ToRegex(bad); err == nil {
			t.Errorf("ToRegex(%q) should fail", bad)
		}
	}
}

// matchSig compiles one signature and reports whether it matches input.
func matchSig(t *testing.T, hex string, input []byte) bool {
	t.Helper()
	a, skipped, err := Compile([]Signature{{Name: "t", Hex: hex}})
	if err != nil || skipped != 0 {
		t.Fatalf("compile %q: err=%v skipped=%d", hex, err, skipped)
	}
	return sim.New(a).Run(input).Reports > 0
}

func TestSignatureSemantics(t *testing.T) {
	if !matchSig(t, "414243", []byte("xABCx")) {
		t.Error("literal should match")
	}
	if matchSig(t, "414243", []byte("AB_C")) {
		t.Error("broken literal matched")
	}
	if !matchSig(t, "41??43", []byte("AZC")) {
		t.Error("?? wildcard should match")
	}
	if !matchSig(t, "41*43", []byte("A....C")) {
		t.Error("* gap should match")
	}
	if !matchSig(t, "41{2-3}43", []byte("AxxC")) {
		t.Error("{2-3} gap should match 2")
	}
	if matchSig(t, "41{2-3}43", []byte("AxC")) {
		t.Error("{2-3} gap matched 1")
	}
	if matchSig(t, "41{2-3}43", []byte("AxxxxC")) {
		t.Error("{2-3} gap matched 4")
	}
	if !matchSig(t, "(41|42)58", []byte("BX")) {
		t.Error("alternation should match")
	}
	if !matchSig(t, "4?58", []byte{0x4C, 'X'}) {
		t.Error("low-nibble wildcard should match")
	}
	if !matchSig(t, "?458", []byte{0xF4, 'X'}) {
		t.Error("high-nibble wildcard should match")
	}
	if matchSig(t, "?458", []byte{0xF5, 'X'}) {
		t.Error("high-nibble wildcard over-matched")
	}
	// Binary bytes including newline must match under DotAll conversion.
	if !matchSig(t, "41??43", []byte{'A', '\n', 'C'}) {
		t.Error("wildcard should match newline (binary scan)")
	}
}

func TestGenerateCompiles(t *testing.T) {
	sigs := Generate(200, 4)
	if len(sigs) != 200 {
		t.Fatalf("sigs=%d", len(sigs))
	}
	for _, s := range sigs {
		pat, err := ToRegex(s.Hex)
		if err != nil {
			t.Fatalf("sig %s: %v", s.Name, err)
		}
		if _, err := regex.Parse(pat, regex.DotAll); err != nil {
			t.Fatalf("sig %s pattern %q: %v", s.Name, pat, err)
		}
	}
	a, skipped, err := Compile(sigs)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped=%d", skipped)
	}
	sizes, _ := a.Components()
	if len(sizes) != 200 {
		t.Fatalf("subgraphs=%d", len(sizes))
	}
	// Mean signature size should be in the paper's ballpark (~71).
	mean := float64(a.NumStates()) / 200
	if mean < 30 || mean > 120 {
		t.Fatalf("mean subgraph size %.1f out of range", mean)
	}
}

func TestVirusBodyMatchesOwnSignature(t *testing.T) {
	sigs := Generate(50, 9)
	for _, s := range sigs[:20] {
		body, err := VirusBody(s)
		if err != nil {
			t.Fatalf("VirusBody(%s): %v", s.Name, err)
		}
		if !matchSig(t, s.Hex, body) {
			t.Fatalf("signature %s does not match its own body", s.Name)
		}
	}
}

func TestDiskImageDetection(t *testing.T) {
	sigs := Generate(100, 11)
	embedded := []Signature{sigs[3], sigs[42]}
	img, err := DiskImage(1<<18, embedded, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 1<<18 {
		t.Fatalf("image len=%d", len(img))
	}
	a, _, err := Compile(sigs)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	found := map[int32]bool{}
	e.OnReport = func(r sim.Report) { found[r.Code] = true }
	e.Run(img)
	if !found[3] || !found[42] {
		t.Fatalf("embedded viruses not detected: %v", found)
	}
}

func TestCleanImageLowFalsePositives(t *testing.T) {
	sigs := Generate(100, 13)
	img, err := DiskImage(1<<17, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := Compile(sigs)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	st := e.Run(img)
	// 20-byte random literals essentially cannot occur by chance.
	if st.Reports > 2 {
		t.Fatalf("false positives: %d reports on clean image", st.Reports)
	}
}
