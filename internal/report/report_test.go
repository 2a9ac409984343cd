package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"automatazoo/internal/telemetry"
)

func testManifest() *Manifest {
	tp := AggregateOf([]float64{10, 20, 30})
	return &Manifest{
		SchemaVersion: SchemaVersion,
		Label:         "test",
		Command:       "table4",
		Timestamp:     "2026-08-06T00:00:00Z",
		Env: Environment{
			GOOS: "linux", GOARCH: "amd64", NumCPU: 8, Workers: 1,
			GoVersion: "go1.22", VCSRevision: "abc123",
		},
		Suite: map[string]string{"scale": "0.05", "seed": "0xa20"},
		Kernels: []KernelRow{
			{Name: "Snort", States: 100, Symbols: 1000, Reports: 5,
				Unit: "MB/s", Throughput: &tp,
				Extra: map[string]float64{"b": 2, "a": 1}},
		},
		Spans: []telemetry.SpanSnapshot{
			{Name: "Snort", Nanos: 300, Count: 1, Children: []telemetry.SpanSnapshot{
				{Name: "build", Nanos: 100, Count: 1},
				{Name: "scan", Nanos: 200, Count: 3},
			}},
		},
	}
}

func TestManifestJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := testManifest().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := testManifest().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two encodings of the same manifest differ")
	}
	// Map keys (suite, extra) serialize sorted.
	s := a.String()
	if strings.Index(s, `"scale"`) > strings.Index(s, `"seed"`) {
		t.Error("suite keys not sorted")
	}
	if strings.Index(s, `"a"`) > strings.Index(s, `"b"`) {
		t.Error("extra keys not sorted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != m.Label || got.Timestamp != m.Timestamp {
		t.Errorf("round trip lost label/timestamp: %+v", got)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip changed the manifest:\n got %+v\nwant %+v", got, m)
	}
}

func TestReadRejectsSchemaMismatch(t *testing.T) {
	in := strings.NewReader(`{"schema_version": 999, "label": "x", "timestamp": "", "env": {}, "kernels": []}`)
	if _, err := Read(in); err == nil {
		t.Fatal("Read accepted a future schema version")
	} else if !strings.Contains(err.Error(), "schema version") {
		t.Errorf("error = %v, want schema-version mention", err)
	}
}

func TestAggregateOf(t *testing.T) {
	a := AggregateOf([]float64{3, 1, 2})
	if a.Min != 1 || a.Mean != 2 || a.Max != 3 {
		t.Errorf("AggregateOf = %+v, want {1 2 3}", a)
	}
	if z := AggregateOf(nil); z != (Aggregate{}) {
		t.Errorf("AggregateOf(nil) = %+v, want zero", z)
	}
}
