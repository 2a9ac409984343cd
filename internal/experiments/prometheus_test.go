package experiments

import (
	"bytes"
	"context"
	"testing"

	"automatazoo/internal/core"
	"automatazoo/internal/segment"
	"automatazoo/internal/telemetry"
)

// TestPrometheusByteStableAcrossWorkers is the acceptance test for the
// /metrics surface: Table I merges per-kernel registries canonically in
// kernel index order, so the merged snapshot — and hence the Prometheus
// exposition rendered from it — is byte-identical at any -j.
func TestPrometheusByteStableAcrossWorkers(t *testing.T) {
	cfg := core.Config{Scale: 0.004, InputBytes: 3000, Seed: 1}
	render := func(workers int) string {
		reg := telemetry.NewRegistry()
		obs := &Observer{Hooks: segment.Hooks{Registry: reg}}
		if _, err := TableI(context.Background(), cfg, false, workers, 1, obs); err != nil {
			t.Fatalf("TableI j=%d: %v", workers, err)
		}
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	j1, j4 := render(1), render(4)
	if j1 == "" {
		t.Fatal("empty exposition")
	}
	if j1 != j4 {
		t.Fatalf("/metrics differs between -j 1 and -j 4:\n--- j1 ---\n%s\n--- j4 ---\n%s", j1, j4)
	}
}
