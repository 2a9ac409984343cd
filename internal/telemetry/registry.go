package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (set, not accumulated).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Max raises the gauge to n if n exceeds the current value.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper limits; one implicit overflow bucket catches everything above the
// last bound. Observation is lock-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	count  atomic.Int64
	max    Gauge
}

// Observe records one value. A scan loop observes through a Tally
// instead, which costs no atomic operation per value.
func (h *Histogram) Observe(v int64) {
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	h.max.Max(v)
}

// bucket returns the index of the bucket v falls in.
func (h *Histogram) bucket(v int64) int {
	// Linear scan: telemetry histograms have ~a dozen buckets and the scan
	// is branch-predictable; binary search costs more below ~32 bounds.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// add records a batch of observations: counts per bucket, their sum,
// their number n and their maximum.
func (h *Histogram) add(counts []int64, sum, n, max int64) {
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(sum)
	h.count.Add(n)
	h.max.Max(max)
}

// tallySmall bounds the values a Tally counts by value: below it an
// observation is one array increment, bucketed only at Flush.
const tallySmall = 64

// Tally batches a Histogram's observations for one goroutine: Observe
// counts into plain integers and Flush adds the batch to the histogram at
// once, which then reads exactly as if every value had been observed
// there. Zeros need not be observed: Flush is told how many observations
// the batch stands for, and counts those not made as zeros.
type Tally struct {
	h        *Histogram
	small    [tallySmall]int64 // small[v]: observations of v
	big      []int64           // per bucket of h: the other observations
	sum, max int64             // of the other observations
}

// NewTally returns an empty Tally that flushes into h.
func NewTally(h *Histogram) *Tally {
	return &Tally{h: h, big: make([]int64, len(h.counts))}
}

// Observe records one value.
func (t *Tally) Observe(v int64) {
	if uint64(v) < tallySmall {
		t.small[v]++
		return
	}
	t.big[t.h.bucket(v)]++
	t.sum += v
	t.max = max(t.max, v)
}

// Flush adds the batch to the histogram as n observations, those beyond
// the ones Observe recorded being zeros, and starts an empty batch.
func (t *Tally) Flush(n int64) {
	if n == 0 {
		return
	}
	sum, mx := t.sum, t.max
	for v, c := range t.small {
		if c != 0 {
			t.big[t.h.bucket(int64(v))] += c
			sum += int64(v) * c
			mx = max(mx, int64(v))
		}
	}
	zeros := n
	for _, c := range t.big {
		zeros -= c
	}
	t.big[t.h.bucket(0)] += zeros
	t.h.add(t.big, sum, n, mx)
	clear(t.big)
	*t = Tally{h: t.h, big: t.big}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed value, 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest observed value, 0 with no observations.
func (h *Histogram) Max() int64 { return h.max.Value() }

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts by
// linear interpolation within the bucket containing the target rank. The
// overflow bucket's upper edge is the observed maximum, so P100 is exact
// and estimates never exceed Max. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(n)
	max := float64(h.max.Value())
	var cum int64
	lower := 0.0
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			if i < len(h.bounds) && float64(h.bounds[i]) < max {
				lower = float64(h.bounds[i])
			}
			continue
		}
		upper := max
		if i < len(h.bounds) && float64(h.bounds[i]) < max {
			upper = float64(h.bounds[i])
		}
		if float64(cum)+float64(c) >= target {
			frac := (target - float64(cum)) / float64(c)
			v := lower + frac*(upper-lower)
			if v > max {
				v = max
			}
			return v
		}
		cum += c
		lower = upper
	}
	return max
}

// ExpBuckets returns n exponentially spaced bounds starting at first and
// doubling: first, 2*first, 4*first, ... — the standard shape for
// frontier-size and latency distributions.
func ExpBuckets(first int64, n int) []int64 {
	if first < 1 {
		first = 1
	}
	bounds := make([]int64, n)
	v := first
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// Registry is a namespace of metrics. Metric constructors are idempotent:
// asking for an existing name returns the existing metric, so independent
// code paths can share counters by name. All methods are safe for
// concurrent use; the metrics themselves are atomic.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Bucket is one histogram bucket in a snapshot. UpperBound is -1 for the
// overflow bucket.
type Bucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric in a registry. Maps
// serialize with sorted keys, so encoding a snapshot is deterministic.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count: h.Count(), Sum: h.sum.Load(), Mean: h.Mean(), Max: h.Max(),
			Buckets: make([]Bucket, 0, len(h.counts)),
		}
		for i := range h.counts {
			b := Bucket{UpperBound: -1, Count: h.counts[i].Load()}
			if i < len(h.bounds) {
				b.UpperBound = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, b)
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON. The output is
// deterministic for a given metric state (keys sort lexically).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Merge folds a snapshot into the registry. It is how the parallel
// experiment harnesses combine per-benchmark registries into one at the
// end of a fan-out, so the semantics are chosen to be commutative —
// merging registries A and B into T yields the same T in either order:
//
//   - counters add;
//   - gauges take the maximum of the two values (Set semantics would make
//     the result depend on merge order);
//   - histograms add bucket-wise. A histogram unseen by the target is
//     created with the snapshot's bounds; when bounds differ, each source
//     bucket's count folds into the first target bucket whose bound is >=
//     the source bound (overflow otherwise), and sum/count add and max
//     maxes, so totals and means stay exact even if bucket shapes degrade.
//
// Merge is safe for concurrent use, like every Registry method, but
// deterministic final contents additionally require the inputs themselves
// to be quiescent.
func (r *Registry) Merge(s Snapshot) {
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Max(v)
	}
	for name, hs := range s.Histograms {
		bounds := make([]int64, 0, len(hs.Buckets))
		for _, b := range hs.Buckets {
			if b.UpperBound != -1 {
				bounds = append(bounds, b.UpperBound)
			}
		}
		h := r.Histogram(name, bounds)
		for _, b := range hs.Buckets {
			if b.Count == 0 {
				continue
			}
			i := len(h.bounds) // overflow by default
			if b.UpperBound != -1 {
				for j, ub := range h.bounds {
					if ub >= b.UpperBound {
						i = j
						break
					}
				}
			}
			h.counts[i].Add(b.Count)
		}
		h.sum.Add(hs.Sum)
		h.count.Add(hs.Count)
		h.max.Max(hs.Max)
	}
}

// MergeFrom merges another registry's current state (Merge of its
// Snapshot).
func (r *Registry) MergeFrom(other *Registry) {
	if other == nil {
		return
	}
	r.Merge(other.Snapshot())
}
