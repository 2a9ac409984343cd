package snort

import (
	"strings"
	"testing"

	"automatazoo/internal/regex"
	"automatazoo/internal/sim"
)

func TestGeneratePopulations(t *testing.T) {
	cfg := GenConfig{CleanRules: 30, ModifierRules: 20, IsdataatRules: 10}
	rules := Generate(cfg, 7)
	if len(rules) != 60 {
		t.Fatalf("rules=%d", len(rules))
	}
	var clean, mod, isd int
	seen := map[int]bool{}
	for _, r := range rules {
		if seen[r.SID] {
			t.Fatalf("duplicate SID %d", r.SID)
		}
		seen[r.SID] = true
		switch {
		case r.Isdataat:
			isd++
		case r.HasSnortModifiers():
			mod++
		default:
			clean++
		}
	}
	if clean != 30 || mod != 20 || isd != 10 {
		t.Fatalf("populations clean=%d mod=%d isd=%d", clean, mod, isd)
	}
}

func TestGeneratedRulesCompile(t *testing.T) {
	rules := Generate(GenConfig{CleanRules: 60, ModifierRules: 40, IsdataatRules: 10}, 3)
	for _, r := range rules {
		if _, err := regex.Parse(r.PCRE, r.Flags); err != nil {
			t.Errorf("rule %d pattern %q does not compile: %v", r.SID, r.PCRE, err)
		}
	}
}

func TestSelectModes(t *testing.T) {
	rules := Generate(GenConfig{CleanRules: 10, ModifierRules: 10, IsdataatRules: 10}, 5)
	if n := len(Select(rules, All)); n != 30 {
		t.Fatalf("All=%d", n)
	}
	if n := len(Select(rules, NoModifiers)); n != 20 {
		t.Fatalf("NoModifiers=%d", n)
	}
	if n := len(Select(rules, Filtered)); n != 10 {
		t.Fatalf("Filtered=%d", n)
	}
}

func TestCompileSkipsUncompilable(t *testing.T) {
	rules := []Rule{
		{SID: 1, PCRE: "goodrule"},
		{SID: 2, PCRE: "(unclosed"},
	}
	a, skipped, err := Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped=%d", skipped)
	}
	if a.NumStates() != 8 {
		t.Fatalf("states=%d", a.NumStates())
	}
}

func TestTrafficShape(t *testing.T) {
	rules := Generate(GenConfig{CleanRules: 20, ModifierRules: 10, IsdataatRules: 5}, 9)
	tr := Traffic(5000, rules, 4)
	if len(tr) != 5000 {
		t.Fatalf("len=%d", len(tr))
	}
	s := string(tr)
	if !strings.Contains(s, "HTTP/1.1") || !strings.Contains(s, "\r\n") {
		t.Fatal("traffic lacks HTTP structure")
	}
}

func TestUnescape(t *testing.T) {
	if got := unescape(`abc\.def\x41`); got != "abc.defA" {
		t.Fatalf("unescape=%q", got)
	}
	if !isPlantableLiteral(`abc\.def\x41`) {
		t.Fatal("literal should be plantable")
	}
	if isPlantableLiteral(`ab[cd]`) || isPlantableLiteral(`a+`) {
		t.Fatal("non-literals accepted")
	}
}

func TestExperimentRatesDrop(t *testing.T) {
	// Scaled-down Section V: removing modifier rules must cut the report
	// rate sharply; removing isdataat rules must cut it again.
	rules := Generate(GenConfig{CleanRules: 120, ModifierRules: 140, IsdataatRules: 9}, 11)
	traffic := Traffic(60_000, rules, 2)
	res, err := Experiment(rules, traffic)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results=%d", len(res))
	}
	full, nomod, filtered := res[0], res[1], res[2]
	if full.ReportRate <= nomod.ReportRate*2 {
		t.Fatalf("modifier removal should drop rate sharply: %.4f -> %.4f",
			full.ReportRate, nomod.ReportRate)
	}
	if nomod.ReportRate <= filtered.ReportRate*1.3 {
		t.Fatalf("isdataat removal should drop rate further: %.4f -> %.4f",
			nomod.ReportRate, filtered.ReportRate)
	}
	if filtered.Reports == 0 {
		t.Fatal("clean rules should still fire occasionally (planted payloads)")
	}
}

func TestCleanRulesFireRarely(t *testing.T) {
	rules := Generate(GenConfig{CleanRules: 100, ModifierRules: 0, IsdataatRules: 0}, 13)
	traffic := Traffic(40_000, rules, 6)
	a, _, err := Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(a)
	st := e.Run(traffic)
	if st.ReportRate() > 0.01 {
		t.Fatalf("clean rules too noisy: rate=%.4f", st.ReportRate())
	}
}
