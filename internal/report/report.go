package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"automatazoo/internal/atomicio"
	"automatazoo/internal/attr"
	"automatazoo/internal/telemetry"
)

// SchemaVersion identifies the manifest JSON layout. Readers accept only
// matching versions; bump it on any breaking field change.
const SchemaVersion = 1

// Aggregate summarizes repeated measurements of one quantity.
type Aggregate struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// AggregateOf computes the min/mean/max of samples (zero value for none).
func AggregateOf(samples []float64) Aggregate {
	if len(samples) == 0 {
		return Aggregate{}
	}
	a := Aggregate{Min: samples[0], Max: samples[0]}
	var sum float64
	for _, v := range samples {
		sum += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Mean = sum / float64(len(samples))
	return a
}

// KernelRow is one kernel's (benchmark's, engine's, variant's) results in
// a manifest. Fields beyond Name are optional: each command fills what it
// measures (Table IV is the one that reports a throughput). Extra
// carries table-specific scalars (overhead_pct, accuracy, ...) without
// schema churn; JSON object keys sort, so it stays deterministic.
type KernelRow struct {
	Name           string             `json:"name"`
	States         int                `json:"states,omitempty"`
	Symbols        int64              `json:"symbols,omitempty"`
	Reports        int64              `json:"reports,omitempty"`
	Unit           string             `json:"unit,omitempty"` // throughput unit, e.g. "MB/s"
	Throughput     *Aggregate         `json:"throughput,omitempty"`
	HasCache       bool               `json:"has_cache,omitempty"`
	CacheHitRate   float64            `json:"cache_hit_rate,omitempty"`
	CacheEvictRate float64            `json:"cache_evict_rate,omitempty"`
	Extra          map[string]float64 `json:"extra,omitempty"`
}

// Manifest is one run's durable record: provenance, configuration,
// per-kernel rows, the phase-span tree, and the telemetry snapshot.
// Encoding a manifest is deterministic for fixed contents — struct field
// order is fixed, map keys sort, and float formatting is canonical — so
// artifacts diff cleanly and golden tests can assert exact bytes.
type Manifest struct {
	SchemaVersion int                      `json:"schema_version"`
	Label         string                   `json:"label"`
	Command       string                   `json:"command,omitempty"`
	Timestamp     string                   `json:"timestamp"` // caller-supplied, RFC3339
	Env           Environment              `json:"env"`
	Suite         map[string]string        `json:"suite,omitempty"` // configuration knobs, stringified
	Kernels       []KernelRow              `json:"kernels"`
	Spans         []telemetry.SpanSnapshot `json:"spans,omitempty"`
	Metrics       *telemetry.Snapshot      `json:"metrics,omitempty"`

	// Attribution holds the run's top-K per-pattern cost rows
	// (internal/attr), already in canonical (cost desc, ID asc) order —
	// present when the command ran with cost attribution enabled.
	Attribution []attr.Cost `json:"attribution,omitempty"`

	// Truncated marks a run the governor stopped early: a budget tripped,
	// the deadline expired, or the context was cancelled. The manifest is
	// still valid — kernels, spans, and metrics describe the work completed
	// before the stop — but its numbers are partial. TrippedBudget names
	// the budget that stopped the run (guard.TripError.Budget).
	Truncated     bool   `json:"truncated,omitempty"`
	TrippedBudget string `json:"tripped_budget,omitempty"`
}

// WriteJSON writes the manifest as indented, deterministic JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path atomically (write-temp + fsync +
// rename): a crash mid-write leaves the previous manifest or none, never
// a truncated-but-parseable one.
func (m *Manifest) WriteFile(path string) error {
	return atomicio.WriteFile(path, m.WriteJSON)
}

// Read decodes a manifest and validates its schema version.
func Read(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("report: decode manifest: %w", err)
	}
	if m.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("report: manifest schema version %d, this build reads %d",
			m.SchemaVersion, SchemaVersion)
	}
	return &m, nil
}

// ReadFile reads a manifest from path.
func ReadFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
