package attr

import (
	"fmt"
	"sync"

	"automatazoo/internal/automata"
)

// Collector owns the shared per-run cost totals for one automaton and
// hands out engine-local Ledgers. Ledger commits are elementwise adds
// under a mutex — commutative, so folded totals are independent of
// worker or segment scheduling.
type Collector struct {
	prov     *Provenance
	compOf   []int32   // global state → component index (a.Components() order)
	compPats [][]int32 // component → sorted origin pattern IDs (empty = unattributed)
	// codeOwner maps a report code to the pattern slot that owns it: the
	// smallest origin pattern ID over all states reporting that code, or
	// the reserved unattributed slot. Reports fold exactly — each report
	// is counted for exactly one pattern — unlike the structural costs,
	// which a merged component charges to every pattern sharing it.
	codeOwner map[int32]int32

	mu  sync.Mutex
	tot ledgerData
}

// ledgerData is one accumulation buffer: structural costs per component,
// reports per pattern slot (the last slot is the unattributed bucket).
type ledgerData struct {
	bytes   []int64 // input bytes scanned while the component was live
	work    []int64 // frontier work: state activations (sim) / live-component byte-steps (dfa)
	cache   []int64 // DFA transition-cache bytes retained (high-water level)
	evict   []int64 // DFA cache entries evicted
	fall    []int64 // DFA→NFA fallbacks
	reports []int64
}

func newLedgerData(nComp, nPat int) ledgerData {
	return ledgerData{
		bytes:   make([]int64, nComp),
		work:    make([]int64, nComp),
		cache:   make([]int64, nComp),
		evict:   make([]int64, nComp),
		fall:    make([]int64, nComp),
		reports: make([]int64, nPat+1),
	}
}

func (d *ledgerData) add(o *ledgerData) {
	for i, v := range o.bytes {
		d.bytes[i] += v
	}
	for i, v := range o.work {
		d.work[i] += v
	}
	for i, v := range o.cache {
		if v > d.cache[i] { // cache bytes are a level, not a flow: keep the high water
			d.cache[i] = v
		}
	}
	for i, v := range o.evict {
		d.evict[i] += v
	}
	for i, v := range o.fall {
		d.fall[i] += v
	}
	for i, v := range o.reports {
		d.reports[i] += v
	}
}

func (d *ledgerData) zero() {
	for i := range d.bytes {
		d.bytes[i] = 0
	}
	for i := range d.work {
		d.work[i] = 0
	}
	for i := range d.cache {
		d.cache[i] = 0
	}
	for i := range d.evict {
		d.evict[i] = 0
	}
	for i := range d.fall {
		d.fall[i] = 0
	}
	for i := range d.reports {
		d.reports[i] = 0
	}
}

// NewCollector builds the component↔pattern index for a and prepares the
// shared totals. prov may cover fewer states than a (extra states fold
// into the unattributed bucket); it must not cover more.
func NewCollector(a *automata.Automaton, prov *Provenance) *Collector {
	sizes, comp := a.Components()
	nPat := prov.NumPatterns()
	compPats := make([][]int32, len(sizes))
	for s := 0; s < a.NumStates(); s++ {
		compPats[comp[s]] = unionIDs(compPats[comp[s]], prov.Origins(automata.StateID(s)))
	}
	codeOwner := make(map[int32]int32)
	for _, s := range a.Reports() {
		owner := int32(nPat) // unattributed slot
		if os := prov.Origins(s); len(os) > 0 {
			owner = os[0] // origins are sorted: min pattern ID owns the code
		}
		code := a.ReportCode(s)
		if prev, ok := codeOwner[code]; !ok || owner < prev {
			codeOwner[code] = owner
		}
	}
	return &Collector{
		prov:      prov,
		compOf:    comp,
		compPats:  compPats,
		codeOwner: codeOwner,
		tot:       newLedgerData(len(sizes), nPat),
	}
}

// Provenance returns the provenance the collector folds through.
func (c *Collector) Provenance() *Provenance { return c.prov }

// Ledger returns a fresh engine-local scratch ledger. compOf maps the
// engine's local state IDs to *global* component indices — pass
// c.GlobalCompOf() for whole-automaton engines, or a slice-local map
// (partition.Plan.SliceCompOf) for partitioned ones. The ledger's
// hot-path methods are allocation-free.
func (c *Collector) Ledger(compOf []int32) *Ledger {
	d := newLedgerData(len(c.compPats), c.prov.NumPatterns())
	return &Ledger{
		c:         c,
		compOf:    compOf,
		slots:     uniqueSlots(compOf),
		codeOwner: c.codeOwner,
		unattrib:  int32(c.prov.NumPatterns()),
		d:         &d,
	}
}

// uniqueSlots returns the sorted distinct global component indices of a
// state→component map.
func uniqueSlots(compOf []int32) []int32 {
	slots := make([]int32, 0, 8)
	seen := make(map[int32]bool, 8)
	for _, g := range compOf {
		if !seen[g] {
			seen[g] = true
			slots = append(slots, g)
		}
	}
	sortIDs(slots)
	return slots
}

// GlobalCompOf returns the global state→component map for whole-automaton
// engines. Callers must not modify it.
func (c *Collector) GlobalCompOf() []int32 { return c.compOf }

// commit folds one scratch buffer into the shared totals.
func (c *Collector) commit(d *ledgerData) {
	c.mu.Lock()
	c.tot.add(d)
	c.mu.Unlock()
}

// Totals is the serializable snapshot of a collector's accumulated
// per-component costs and per-pattern reports — the checkpoint codec
// persists it so a resumed run's attribution output equals the
// uninterrupted run's. Slices are indexed like ledgerData (components;
// reports has one extra unattributed slot).
type Totals struct {
	Bytes   []int64 `json:"bytes"`
	Work    []int64 `json:"work"`
	Cache   []int64 `json:"cache"`
	Evict   []int64 `json:"evict"`
	Fall    []int64 `json:"fall"`
	Reports []int64 `json:"reports"`
}

// Totals copies the committed totals. Ledgers not yet committed are not
// included — checkpoint savers commit their engines' ledgers first.
func (c *Collector) Totals() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Totals{
		Bytes:   append([]int64(nil), c.tot.bytes...),
		Work:    append([]int64(nil), c.tot.work...),
		Cache:   append([]int64(nil), c.tot.cache...),
		Evict:   append([]int64(nil), c.tot.evict...),
		Fall:    append([]int64(nil), c.tot.fall...),
		Reports: append([]int64(nil), c.tot.reports...),
	}
}

// RestoreTotals replaces the committed totals with a snapshot taken by
// Totals on a collector of the same shape (same automaton and
// provenance). It errors, changing nothing, when the shapes disagree —
// the snapshot came from a different build.
func (c *Collector) RestoreTotals(t Totals) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(t.Bytes) != len(c.tot.bytes) || len(t.Work) != len(c.tot.work) ||
		len(t.Cache) != len(c.tot.cache) || len(t.Evict) != len(c.tot.evict) ||
		len(t.Fall) != len(c.tot.fall) || len(t.Reports) != len(c.tot.reports) {
		return fmt.Errorf("attr: RestoreTotals: shape mismatch (%d/%d components, %d/%d report slots)",
			len(t.Bytes), len(c.tot.bytes), len(t.Reports), len(c.tot.reports))
	}
	copy(c.tot.bytes, t.Bytes)
	copy(c.tot.work, t.Work)
	copy(c.tot.cache, t.Cache)
	copy(c.tot.evict, t.Evict)
	copy(c.tot.fall, t.Fall)
	copy(c.tot.reports, t.Reports)
	return nil
}

// Ledger is the engine-facing scratch buffer. Engines call the hot-path
// methods with no locking; Commit folds the scratch into the collector
// and zeroes it for reuse. A nil *Ledger is the disabled state — engines
// nil-guard every hook.
type Ledger struct {
	c         *Collector
	compOf    []int32 // engine-local state → global component
	slots     []int32 // sorted unique global components this engine covers
	codeOwner map[int32]int32
	unattrib  int32
	d         *ledgerData
}

// Activate records one unit of frontier work for the component of
// engine-local state s.
func (l *Ledger) Activate(s automata.StateID) { l.d.work[l.compOf[s]]++ }

// Report attributes one emitted report to the pattern owning code.
func (l *Ledger) Report(code int32) {
	owner, ok := l.codeOwner[code]
	if !ok {
		owner = l.unattrib
	}
	l.d.reports[owner]++
}

// AddBytesAll charges n scanned input bytes to every component this
// ledger covers — the sim engine steps all its components on every byte.
func (l *Ledger) AddBytesAll(n int64) {
	for _, s := range l.slots {
		l.d.bytes[s] += n
	}
}

// Slot returns the global component slot of engine-local state s, for
// engines that track per-component byte liveness themselves.
func (l *Ledger) Slot(s automata.StateID) int32 { return l.compOf[s] }

// AddBytes charges n scanned bytes to one component slot.
func (l *Ledger) AddBytes(slot int32, n int64) { l.d.bytes[slot] += n }

// AddWork charges n units of frontier work to one component slot.
func (l *Ledger) AddWork(slot int32, n int64) { l.d.work[slot] += n }

// SetCacheBytes records the DFA transition-cache level of one component
// (kept as a high-water mark across commits).
func (l *Ledger) SetCacheBytes(slot int32, n int64) {
	if n > l.d.cache[slot] {
		l.d.cache[slot] = n
	}
}

// AddEvictions charges n evicted cache entries to one component slot.
func (l *Ledger) AddEvictions(slot int32, n int64) { l.d.evict[slot] += n }

// AddFallback records one DFA→NFA degradation of one component slot.
func (l *Ledger) AddFallback(slot int32) { l.d.fall[slot]++ }

// Commit folds the scratch into the shared collector totals and zeroes
// it. Safe to call repeatedly; concurrent commits from different ledgers
// serialize on the collector.
func (l *Ledger) Commit() {
	l.c.commit(l.d)
	l.d.zero()
}

// Discard zeroes the scratch without committing — used when a
// speculative segment scan fails its stitch check and is replayed
// exactly elsewhere.
func (l *Ledger) Discard() { l.d.zero() }
