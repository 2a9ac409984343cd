package regex

import (
	"math/rand"
	"regexp"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/sim"
)

// mustCompile compiles pattern or fails the test.
func mustCompile(t *testing.T, pattern string, flags Flags, code int32) *CompileResult {
	t.Helper()
	res, err := Compile(pattern, flags, code)
	if err != nil {
		t.Fatalf("Compile(%q): %v", pattern, err)
	}
	return res
}

// matchOffsets runs the compiled pattern over input and returns the set of
// distinct offsets at which a report fired.
func matchOffsets(t *testing.T, pattern string, flags Flags, input string) map[int64]bool {
	t.Helper()
	res, err := Compile(pattern, flags, 0)
	if err != nil {
		t.Fatalf("Compile(%q): %v", pattern, err)
	}
	e := sim.New(res.Automaton)
	offs := map[int64]bool{}
	e.OnReport = func(r sim.Report) { offs[r.Offset] = true }
	e.Run([]byte(input))
	return offs
}

// goMatchEnds computes ground truth with the stdlib engine: the set of
// offsets j such that some substring input[i:j+1] matches pattern exactly.
func goMatchEnds(t *testing.T, pattern string, input string, anchored bool) map[int64]bool {
	t.Helper()
	re := regexp.MustCompile("^(?:" + pattern + ")$")
	offs := map[int64]bool{}
	for j := 0; j < len(input); j++ {
		lo := 0
		if anchored {
			// only substrings starting at 0
		}
		for i := lo; i <= j; i++ {
			if anchored && i != 0 {
				break
			}
			if re.MatchString(input[i : j+1]) {
				offs[int64(j)] = true
				break
			}
		}
	}
	return offs
}

func sameOffsets(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func checkAgainstGo(t *testing.T, pattern, input string) {
	t.Helper()
	got := matchOffsets(t, pattern, 0, input)
	want := goMatchEnds(t, pattern, input, false)
	if !sameOffsets(got, want) {
		t.Errorf("pattern %q on %q: got offsets %v want %v", pattern, input, got, want)
	}
}

func TestBasicPatterns(t *testing.T) {
	cases := []struct{ pattern, input string }{
		{"abc", "xxabcxabc"},
		{"a.c", "abc axc a\nc"},
		{"a|b", "ab c"},
		{"ab|cd", "abxcd"},
		{"a(b|c)d", "abd acd axd"},
		{"a*b", "aaab b caab"},
		{"a+b", "aaab b ab"},
		{"a?b", "ab b aab"},
		{"[abc]x", "ax bx cx dx"},
		{"[^abc]x", "ax dx !x"},
		{"[a-f]+z", "abcz gz ffz"},
		{"x\\d+y", "x123y xy x7y"},
		{"a{3}", "aa aaa aaaa"},
		{"a{2,4}b", "ab aab aaaab aaaaab"},
		{"a{2,}b", "ab aab aaaaaab"},
		{"(ab)+c", "abc ababc abab"},
		{"(ab|cd){2}e", "ababe abcde e"},
		{"\\wx", "ax 9x _x !x"},
		{"\\s\\d", " 1\t2 x3"},
		{"a\\.b", "a.b axb"},
		{"ab$", "cabab"},
		{"colou?r", "color colour colouur"},
		{"(a|b)(c|d)", "ac bd ad xc"},
		{"z(a*|b)z", "zz zaz zbz zaabz"},
	}
	for _, c := range cases {
		checkAgainstGo(t, c.pattern, c.input)
	}
}

func TestAnchoredStart(t *testing.T) {
	got := matchOffsets(t, "^ab", 0, "abxab")
	want := map[int64]bool{1: true}
	if !sameOffsets(got, want) {
		t.Errorf("^ab: got %v want %v", got, want)
	}
}

func TestAnchoredEndMetadata(t *testing.T) {
	res, err := Compile("ab$", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AnchoredEnd {
		t.Fatal("AnchoredEnd not detected")
	}
	res2, err := Compile("ab\\$", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.AnchoredEnd {
		t.Fatal("escaped dollar mistaken for anchor")
	}
	// The escaped form matches a literal dollar.
	got := matchOffsets(t, "ab\\$", 0, "xab$")
	if !sameOffsets(got, map[int64]bool{3: true}) {
		t.Errorf("ab\\$: got %v", got)
	}
}

func TestCaseInsensitive(t *testing.T) {
	got := matchOffsets(t, "aBc", CaseInsensitive, "ABC abc AbC xbc")
	want := map[int64]bool{2: true, 6: true, 10: true}
	if !sameOffsets(got, want) {
		t.Errorf("/aBc/i: got %v want %v", got, want)
	}
}

func TestDotAll(t *testing.T) {
	plain := matchOffsets(t, "a.c", 0, "a\nc")
	if len(plain) != 0 {
		t.Errorf("a.c should not match newline without /s: %v", plain)
	}
	dotall := matchOffsets(t, "a.c", DotAll, "a\nc")
	if !sameOffsets(dotall, map[int64]bool{2: true}) {
		t.Errorf("/a.c/s: got %v", dotall)
	}
}

func TestHexEscapes(t *testing.T) {
	got := matchOffsets(t, "\\x41\\x42", 0, "zAB")
	if !sameOffsets(got, map[int64]bool{2: true}) {
		t.Errorf("\\x41\\x42: got %v", got)
	}
}

func TestClassEdgeCases(t *testing.T) {
	// ']' first in class is a literal; '-' at end is a literal.
	got := matchOffsets(t, "[]a]x", 0, "]x ax bx")
	if !sameOffsets(got, map[int64]bool{1: true, 4: true}) {
		t.Errorf("[]a]x: got %v", got)
	}
	got = matchOffsets(t, "[a-]z", 0, "az -z bz")
	if !sameOffsets(got, map[int64]bool{1: true, 4: true}) {
		t.Errorf("[a-]z: got %v", got)
	}
	got = matchOffsets(t, "[\\d]y", 0, "1y xy")
	if !sameOffsets(got, map[int64]bool{1: true}) {
		t.Errorf("[\\d]y: got %v", got)
	}
	got = matchOffsets(t, "[\\x30-\\x32]k", 0, "0k 2k 3k")
	if !sameOffsets(got, map[int64]bool{1: true, 4: true}) {
		t.Errorf("hex range class: got %v", got)
	}
}

func TestErrorCases(t *testing.T) {
	bad := []string{
		"",         // empty → nullable
		"a**",      // nothing to repeat (second *)
		"(",        // missing )
		")",        // unmatched
		"(?=a)",    // lookahead
		"[a",       // missing ]
		"a{3,1}",   // min > max
		"\\1",      // backref
		"a\\",      // trailing backslash
		"a*",       // nullable whole pattern
		"x{99999}", // repeat too large
		"[z-a]",    // inverted range
		"a^b",      // interior anchor
	}
	for _, p := range bad {
		if _, err := Compile(p, 0, 0); err == nil {
			t.Errorf("Compile(%q) should fail", p)
		}
	}
}

func TestLazyQuantifierAccepted(t *testing.T) {
	// Lazy quantifiers have the same match *set*; just ensure they parse.
	checkAgainstGo(t, "a+?b", "aab ab")
	checkAgainstGo(t, "a*?b", "b aab")
}

func TestBraceLiteralFallback(t *testing.T) {
	// Unparsable brace is a literal '{', as in PCRE.
	checkAgainstGo(t, "a{x}", "a{x} ax")
	checkAgainstGo(t, "a{", "a{ b")
}

func TestNonCapturingGroup(t *testing.T) {
	checkAgainstGo(t, "(?:ab)+c", "ababc abc xc")
}

func TestParsePCRE(t *testing.T) {
	pat, flags, extra, err := ParsePCRE("/foo.*bar/si")
	if err != nil {
		t.Fatal(err)
	}
	if pat != "foo.*bar" {
		t.Errorf("pattern=%q", pat)
	}
	if flags&CaseInsensitive == 0 || flags&DotAll == 0 {
		t.Errorf("flags=%v", flags)
	}
	if extra != "" {
		t.Errorf("extra=%q", extra)
	}
	_, _, extra, err = ParsePCRE("/x/UR")
	if err != nil || extra != "UR" {
		t.Errorf("extra modifiers: %q err=%v", extra, err)
	}
	if _, _, _, err = ParsePCRE("nope"); err == nil {
		t.Error("ParsePCRE should reject non-slash form")
	}
	if _, _, _, err = ParsePCRE("/unterminated"); err == nil {
		t.Error("ParsePCRE should reject unterminated form")
	}
	// Pattern containing a slash: the split is at the last slash.
	pat, _, _, err = ParsePCRE("/a\\/b/i")
	if err != nil || pat != "a\\/b" {
		t.Errorf("slash-in-pattern: %q err=%v", pat, err)
	}
}

func TestCompileInto(t *testing.T) {
	b := automata.NewBuilder()
	p1, err := Parse("cat", 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse("dog", 0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := CompileInto(b, p1, 1)
	if err != nil || n1 != 3 {
		t.Fatalf("n1=%d err=%v", n1, err)
	}
	n2, err := CompileInto(b, p2, 2)
	if err != nil || n2 != 3 {
		t.Fatalf("n2=%d err=%v", n2, err)
	}
	a := b.MustBuild()
	e := sim.New(a)
	var reps []sim.Report
	e.OnReport = func(r sim.Report) { reps = append(reps, r) }
	e.Run([]byte("catdog"))
	if len(reps) != 2 {
		t.Fatalf("reports=%v", reps)
	}
	if reps[0].Code != 1 || reps[1].Code != 2 {
		t.Fatalf("codes wrong: %v", reps)
	}
}

func TestPositionsCount(t *testing.T) {
	res := mustCompile(t, "a{4}b", 0, 0)
	if res.Positions != 5 || res.Automaton.NumStates() != 5 {
		t.Fatalf("positions=%d states=%d", res.Positions, res.Automaton.NumStates())
	}
}

// Property test: random patterns from a safe generator agree with the
// stdlib engine on random inputs.
func TestQuickRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	atoms := []string{"a", "b", "c", "[ab]", "[^a]", "."}
	randPattern := func() string {
		n := 1 + rng.Intn(4)
		p := ""
		for i := 0; i < n; i++ {
			a := atoms[rng.Intn(len(atoms))]
			switch rng.Intn(5) {
			case 0:
				a += "+"
			case 1:
				a = "(" + a + "|" + atoms[rng.Intn(len(atoms))] + ")"
			case 2:
				a += "{1,2}"
			}
			p += a
		}
		return p
	}
	alphabet := "abc\n"
	for trial := 0; trial < 150; trial++ {
		pat := randPattern()
		if _, err := Parse(pat, 0); err != nil {
			continue
		}
		in := make([]byte, rng.Intn(12))
		for i := range in {
			in[i] = alphabet[rng.Intn(len(alphabet))]
		}
		got := matchOffsets(t, pat, 0, string(in))
		want := goMatchEnds(t, pat, string(in), false)
		if !sameOffsets(got, want) {
			t.Fatalf("trial %d: pattern %q input %q: got %v want %v",
				trial, pat, in, got, want)
		}
	}
}

// TestPositionSetsCompose checks concatenation and alternation of
// multi-position, nullable and looping operands against Go's regexp on
// every input up to length 4 over the pattern alphabet. The Glushkov
// build extends its operands' first and last sets in place, so a first
// set that shared storage with a last set would show here.
func TestPositionSetsCompose(t *testing.T) {
	patterns := []string{
		"(ab|cd)e", "(a?b|c)d", "(ab|c?d?)e", "e(ab|cd)*a", "(a|bc|d?e)+a",
		"(ab?|c)(d|ea?)b", "a(b?c?)(d?e?)a", "(ab|cd)(ec|ba)?", "((ab|c)d|e)(a|bc)",
	}
	const alphabet = "abcde"
	var inputs []string
	for n, frontier := 0, []string{""}; n <= 4; n++ {
		inputs = append(inputs, frontier...)
		var next []string
		for _, in := range frontier {
			for i := range alphabet {
				next = append(next, in+alphabet[i:i+1])
			}
		}
		frontier = next
	}
	for _, pat := range patterns {
		for _, in := range inputs {
			got := matchOffsets(t, pat, 0, in)
			if want := goMatchEnds(t, pat, in, false); !sameOffsets(got, want) {
				t.Fatalf("pattern %q input %q: got %v want %v", pat, in, got, want)
			}
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Compile("a(", 0, 0)
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pattern != "a(" || se.Error() == "" {
		t.Fatalf("bad SyntaxError: %+v", se)
	}
}

func TestStartTypesOnCompiledStates(t *testing.T) {
	res := mustCompile(t, "^ab", 0, 0)
	a := res.Automaton
	if a.Start(0) != automata.StartOfData {
		t.Fatal("anchored head should be start-of-data")
	}
	res = mustCompile(t, "ab", 0, 0)
	if res.Automaton.Start(0) != automata.StartAllInput {
		t.Fatal("unanchored head should be all-input")
	}
}

func TestClassNegationIncludesHighBytes(t *testing.T) {
	res := mustCompile(t, "[^a]", 0, 0)
	cls := res.Automaton.Class(0)
	if cls.Contains('a') || !cls.Contains(0xff) || !cls.Contains(0) {
		t.Fatal("negated class wrong")
	}
	_ = charset.Set{}
}
