package telemetry

import (
	"strings"
	"testing"
)

func TestWriteHeatmapEmptyEntries(t *testing.T) {
	var sb strings.Builder
	if err := WriteHeatmap(&sb, nil, 1000); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "(no state activations)\n" {
		t.Errorf("empty heatmap = %q", got)
	}
}

func TestWriteHeatmapZeroSymbols(t *testing.T) {
	entries := []HeatEntry{{State: 3, Subgraph: 0, Activations: 7, Share: 1}}
	var sb strings.Builder
	if err := WriteHeatmap(&sb, entries, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Zero symbols must not divide: the act/symbol column reads 0, not NaN.
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("zero-symbol heatmap contains NaN/Inf:\n%s", out)
	}
	if !strings.Contains(out, "0.0000") {
		t.Errorf("zero-symbol heatmap missing zeroed act/symbol column:\n%s", out)
	}
}

func TestWriteHeatmapSingleState(t *testing.T) {
	p := NewStateProfile(1)
	p.Activations[0] = 5
	entries := p.TopK(10, []int32{0})
	if len(entries) != 1 || entries[0].Share != 1 {
		t.Fatalf("TopK single-state = %+v, want one entry with share 1", entries)
	}
	var sb strings.Builder
	if err := WriteHeatmap(&sb, entries, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), strings.Repeat("#", 40)) {
		t.Errorf("sole state should draw a full-width bar:\n%s", sb.String())
	}
}

func TestTopKAllZeroProfile(t *testing.T) {
	p := NewStateProfile(8)
	if got := p.TopK(4, nil); len(got) != 0 {
		t.Errorf("TopK of silent profile = %+v, want empty", got)
	}
	var sb strings.Builder
	if err := WriteHeatmap(&sb, p.TopK(4, nil), 100); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no state activations") {
		t.Errorf("silent profile output = %q", sb.String())
	}
}

func TestWriteSubgraphHeatmapEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteSubgraphHeatmap(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "(no subgraph activations)\n" {
		t.Errorf("empty subgraph heatmap = %q", got)
	}
}

func TestTopSubgraphsNilComponents(t *testing.T) {
	p := NewStateProfile(2)
	p.Activations[0] = 1
	if got := p.TopSubgraphs(5, nil); got != nil {
		t.Errorf("TopSubgraphs(nil comp) = %+v, want nil", got)
	}
}
