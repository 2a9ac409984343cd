package catalog

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestTableIsValid(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(PerLayer()); n != 118 {
		t.Errorf("%d per-layer metrics, the README documents 118", n)
	}
	if len(Kernels) != 25 {
		t.Errorf("%d kernels, Table I has 25 rows", len(Kernels))
	}
}

// The checked-in BENCHMARK.json is generated; edit the table and run
// "bash bench/run.sh -write-manifest".
func TestManifestMatchesTable(t *testing.T) {
	want, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json has drifted from bench/catalog: regenerate it with azbench -write-manifest")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the format allows 64 KiB", len(got))
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(doc, key)
	}
	for key := range doc {
		t.Errorf("BENCHMARK.json has unexpected key %q", key)
	}
}

func TestValidateRejectsBadTables(t *testing.T) {
	restore := func() func() {
		w, e := Workloads, EndToEnd
		return func() { Workloads, EndToEnd = w, e }
	}()
	defer restore()

	for name, breakIt := range map[string]func(){
		"character outside the name alphabet": func() {
			Workloads = append([]Workload{{Name: "bad name!", Why: "x"}}, Workloads[1:]...)
		},
		"more than 8 workloads": func() {
			for i := 0; len(Workloads) <= MaxWorkloads; i++ {
				Workloads = append(Workloads[:len(Workloads):len(Workloads)], Workload{Name: "extra" + string(rune('a'+i)), Why: "x"})
			}
		},
		"more than 16 end-to-end metrics": func() {
			for i := 0; len(EndToEnd) <= MaxEndToEnd; i++ {
				EndToEnd = append(EndToEnd[:len(EndToEnd):len(EndToEnd)], Metric{Name: "m" + string(rune('a'+i)), Unit: "s", Better: "lower", Bound: 0.1})
			}
		},
		"bound above a quarter": func() {
			EndToEnd = append([]Metric{{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.3}}, EndToEnd[1:]...)
		},
		"no setup_s": func() {
			var kept []Metric
			for _, m := range EndToEnd {
				if m.Name != "setup_s" {
					kept = append(kept, m)
				}
			}
			EndToEnd = kept
		},
		"why of two lines": func() {
			Workloads = append([]Workload{{Name: "w", Why: "a\nb"}}, Workloads[1:]...)
		},
	} {
		breakIt()
		if err := Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		restore()
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Seq. Match 6w 6p wC": "seq_match_6w_6p_wc",
		"Hamming 22x5":        "hamming_22x5",
		"AP PRNG 8-sided":     "ap_prng_8_sided",
	} {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
	seen := map[string]bool{}
	for _, k := range Kernels {
		if s := Slug(k); seen[s] || strings.ContainsAny(s, " .") {
			t.Errorf("kernel %q: slug %q collides or is not a name", k, s)
		} else {
			seen[s] = true
		}
	}
}
