package attr

import (
	"fmt"
	"io"
	"text/tabwriter"

	"automatazoo/internal/telemetry"
)

// Cost is one folded per-pattern cost row. Reports are exact (each
// emitted report is counted for exactly one pattern, via the report-code
// owner map); the structural costs — bytes, work, cache — are charged in
// full to every pattern sharing a merged component, so their per-pattern
// sums can exceed the run totals when prefix-merging fused patterns.
type Cost struct {
	ID         int32   `json:"id"`
	Name       string  `json:"name"`
	Cost       int64   `json:"cost"`
	Bytes      int64   `json:"bytes"`
	Work       int64   `json:"work"`
	Reports    int64   `json:"reports"`
	Density    float64 `json:"density"`
	CacheBytes int64   `json:"cache_bytes"`
	Evictions  int64   `json:"evictions"`
	Fallbacks  int64   `json:"fallbacks"`
}

// Fold collapses the committed component totals up to per-pattern rows
// through the provenance map and sorts them by the canonical
// (cost descending, pattern-ID ascending) key. The reserved
// "(unattributed)" bucket appears (with ID one past the last pattern)
// only when it accumulated anything. Every quantity is an integer total
// of deterministic engine events, so the fold — and any rendering of
// it — is byte-identical at any worker or segment count.
func (c *Collector) Fold() []Cost {
	nPat := c.prov.NumPatterns()
	rows := make([]Cost, nPat+1)
	for i := range rows {
		rows[i].ID = int32(i)
		if i < nPat {
			rows[i].Name = c.prov.patterns[i].Name
		} else {
			rows[i].Name = Unattributed
		}
	}
	c.mu.Lock()
	for k := range c.compPats {
		pats := c.compPats[k]
		if len(pats) == 0 {
			pats = []int32{int32(nPat)}
		}
		for _, p := range pats {
			rows[p].Bytes += c.tot.bytes[k]
			rows[p].Work += c.tot.work[k]
			rows[p].CacheBytes += c.tot.cache[k]
			rows[p].Evictions += c.tot.evict[k]
			rows[p].Fallbacks += c.tot.fall[k]
		}
	}
	for p := 0; p <= nPat; p++ {
		rows[p].Reports = c.tot.reports[p]
	}
	c.mu.Unlock()
	for i := range rows {
		r := &rows[i]
		r.Cost = r.Work + r.Bytes + r.CacheBytes + r.Evictions
		if r.Bytes > 0 {
			r.Density = float64(r.Reports) / float64(r.Bytes)
		}
	}
	if u := &rows[nPat]; u.Cost == 0 && u.Reports == 0 && u.Fallbacks == 0 {
		rows = rows[:nPat]
	}
	sortCosts(rows)
	return rows
}

// sortCosts orders rows by the canonical (cost desc, ID asc) key with a
// deterministic insertion sort (rows are small after Top truncation and
// the key is total).
func sortCosts(rows []Cost) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && costLess(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func costLess(a, b Cost) bool {
	if a.Cost != b.Cost {
		return a.Cost > b.Cost
	}
	return a.ID < b.ID
}

// Top returns the first k rows (all when k <= 0 or k exceeds the list).
func Top(rows []Cost, k int) []Cost {
	if k <= 0 || k >= len(rows) {
		return rows
	}
	return rows[:k]
}

// WriteText renders rows as a fixed-layout table. Output depends only on
// the row values, never on timing or iteration order.
func WriteText(w io.Writer, rows []Cost) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "ID\tPATTERN\tCOST\tBYTES\tWORK\tREPORTS\tDENSITY\tCACHEB\tEVICT\tFALLBK\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%.3g\t%d\t%d\t%d\t\n",
			r.ID, r.Name, r.Cost, r.Bytes, r.Work, r.Reports, r.Density,
			r.CacheBytes, r.Evictions, r.Fallbacks)
	}
	return tw.Flush()
}

// Publish exports the top-k folded rows into a telemetry registry as
// attr.* counters — rendered on /metrics as azoo_attr_* Prometheus
// families. Gauge levels (cache bytes) use gauges; flows use counters.
// The pattern name is embedded in the metric name (the registry is
// label-free); k bounds the family cardinality.
func (c *Collector) Publish(reg *telemetry.Registry, k int) {
	if reg == nil {
		return
	}
	for _, r := range Top(c.Fold(), k) {
		reg.Counter("attr.cost." + r.Name).Add(r.Cost)
		reg.Counter("attr.work." + r.Name).Add(r.Work)
		reg.Counter("attr.bytes." + r.Name).Add(r.Bytes)
		reg.Counter("attr.reports." + r.Name).Add(r.Reports)
		if r.CacheBytes > 0 {
			reg.Gauge("attr.cache_bytes." + r.Name).Set(r.CacheBytes)
		}
		if r.Evictions > 0 {
			reg.Counter("attr.evictions." + r.Name).Add(r.Evictions)
		}
		if r.Fallbacks > 0 {
			reg.Counter("attr.fallbacks." + r.Name).Add(r.Fallbacks)
		}
	}
}
