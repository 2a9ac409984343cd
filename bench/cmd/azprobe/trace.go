package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one interval at a layer boundary. Spans of one kernel share its
// slug; Parent is the id of the span that was open when this one began.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0: a root
	Kernel  string           `json:"kernel"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"` // since the traced run began
	EndNS   int64            `json:"end_ns"`
	SelfNS  int64            `json:"self_ns"` // duration minus the part child spans cover
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written out when the probe ends.
// A nil tracer records nothing, which is the untraced run. The pipeline is
// single-threaded at its layer boundaries, so a stack gives the parent.
type tracer struct {
	t0     time.Time
	kernel string
	spans  []span
	open   []int // indexes into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle ends one span; nil when tracing is off.
type handle struct {
	t   *tracer
	idx int
}

func (t *tracer) begin(name string) *handle {
	if t == nil {
		return nil
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Kernel: t.kernel, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return &handle{t, idx}
}

// count attaches a count measured at this boundary.
func (h *handle) count(key string, v int64) {
	if h == nil {
		return
	}
	s := &h.t.spans[h.idx]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] = v
}

func (h *handle) end() {
	if h == nil {
		return
	}
	h.t.spans[h.idx].EndNS = time.Since(h.t.t0).Nanoseconds()
	h.t.open = h.t.open[:len(h.t.open)-1]
}

// selfTimes fills SelfNS: a span's duration minus its direct children's.
func selfTimes(spans []span) {
	for i := range spans {
		spans[i].SelfNS = spans[i].EndNS - spans[i].StartNS
	}
	for _, s := range spans {
		if s.Parent > 0 {
			spans[s.Parent-1].SelfNS -= s.EndNS - s.StartNS
		}
	}
}

func writeTrace(path string, p *probe, spans []span) error {
	doc := struct {
		Seed  uint64  `json:"seed"`
		W     int     `json:"w"`
		Scale float64 `json:"scale"`
		Spans []span  `json:"spans"`
	}{p.seed, p.w, pipelineScale, spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
