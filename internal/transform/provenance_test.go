package transform

import (
	"testing"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/regex"
)

// compileTagged compiles each pattern under an attr scope named "p<i>"
// with report code i, so pattern ID i owns code i by construction.
func compileTagged(t *testing.T, patterns ...string) (*automata.Automaton, *attr.Provenance) {
	t.Helper()
	b := automata.NewBuilder()
	var r attr.Ranges
	for i, p := range patterns {
		lo := b.NumStates()
		parsed, err := regex.Parse(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := regex.CompileInto(b, parsed, int32(i)); err != nil {
			t.Fatal(err)
		}
		r.Tag("p"+string(rune('0'+i)), lo, b.NumStates())
	}
	return b.MustBuild(), r.Provenance(b.NumStates())
}

// checkReportOrigins asserts the provenance invariant that every transform
// must preserve: each report state with code c still carries pattern c
// among its origins.
func checkReportOrigins(t *testing.T, stage string, a *automata.Automaton, prov *attr.Provenance) {
	t.Helper()
	if prov.NumStates() != a.NumStates() {
		t.Fatalf("%s: provenance covers %d states, automaton has %d", stage, prov.NumStates(), a.NumStates())
	}
	for _, s := range a.Reports() {
		code := a.ReportCode(s)
		found := false
		for _, id := range prov.Origins(s) {
			if id == code {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: report state %d (code %d) lost its origin: %v", stage, s, code, prov.Origins(s))
		}
	}
}

func TestPrefixMergeMappedProvenance(t *testing.T) {
	a, prov := compileTagged(t, "hello", "help")
	m, removed, remap := PrefixMergeMapped(a)
	if removed == 0 {
		t.Fatal("shared prefix not merged — test premise broken")
	}
	mprov := prov.Apply(remap, m.NumStates())
	checkReportOrigins(t, "prefix-merge", m, mprov)
	// The fused "hel" prefix states must now carry both origins.
	merged := 0
	for s := 0; s < m.NumStates(); s++ {
		if len(mprov.Origins(automata.StateID(s))) == 2 {
			merged++
		}
	}
	if merged != 3 {
		t.Fatalf("expected 3 two-origin merged states, got %d", merged)
	}
}

func TestTrimMappedProvenance(t *testing.T) {
	a, prov := compileTagged(t, "ab", "cd")
	m, _, remap := TrimMapped(a)
	mprov := prov.Apply(remap, m.NumStates())
	checkReportOrigins(t, "trim", m, mprov)
}

func TestWidenMappedProvenance(t *testing.T) {
	a, prov := compileTagged(t, "abc", "xyz")
	m, copies, err := WidenMapped(a)
	if err != nil {
		t.Fatal(err)
	}
	mprov := prov.ApplyMulti(copies, m.NumStates())
	checkReportOrigins(t, "widen", m, mprov)
	// Widening replicates; no state may fall out of attribution.
	for s := 0; s < m.NumStates(); s++ {
		if len(mprov.Origins(automata.StateID(s))) == 0 {
			t.Fatalf("widen: state %d lost all origins", s)
		}
	}
}

func TestLimitFanOutMappedProvenance(t *testing.T) {
	// Alternation forces a high fan-out start that fan-limiting replicates.
	a, prov := compileTagged(t, "a(b|c|d|e|f|g)h", "zq")
	m, copies, err := LimitFanOutMapped(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	mprov := prov.ApplyMulti(copies, m.NumStates())
	checkReportOrigins(t, "fan-limit", m, mprov)
}

// TestProvenanceSurvivesTransformChain threads one provenance through
// every mapped pass in sequence — merge, trim, fan-limit, widen — and
// checks the report-origin invariant after each stage.
func TestProvenanceSurvivesTransformChain(t *testing.T) {
	a, prov := compileTagged(t, "hello", "help", "hero")

	m, _, remap := PrefixMergeMapped(a)
	prov = prov.Apply(remap, m.NumStates())
	checkReportOrigins(t, "chain/prefix-merge", m, prov)

	tr, _, tremap := TrimMapped(m)
	prov = prov.Apply(tremap, tr.NumStates())
	checkReportOrigins(t, "chain/trim", tr, prov)

	fl, copies, err := LimitFanOutMapped(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	prov = prov.ApplyMulti(copies, fl.NumStates())
	checkReportOrigins(t, "chain/fan-limit", fl, prov)

	w, wcopies, err := WidenMapped(fl)
	if err != nil {
		t.Fatal(err)
	}
	prov = prov.ApplyMulti(wcopies, w.NumStates())
	checkReportOrigins(t, "chain/widen", w, prov)
}
