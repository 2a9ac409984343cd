// Package attr attributes runtime cost back to source patterns.
//
// The suite's loaders assemble thousands of regex/MNRL patterns into one
// automaton; after prefix-merging and fan-out limiting the resulting
// states no longer correspond one-to-one to patterns, and the engines'
// telemetry (heatmaps, cache counters) speaks in anonymous state indices.
// This package closes that gap in three layers:
//
//   - Provenance: a compile-time map from every automaton state to the
//     set of pattern IDs whose compilation produced it. Loaders record
//     contiguous builder state ranges per pattern (Ranges); every
//     transform pass propagates origins through its state rewrite
//     (Apply/ApplyMulti), so merged states carry origin-ID sets.
//   - Collector/Ledger (ledger.go): a runtime cost ledger — per-component
//     bytes scanned, frontier work, reports, DFA cache bytes, evictions
//     and fallbacks — filled by nil-guarded engine hooks and folded up to
//     per-pattern totals through the provenance map.
//   - Explain (explain.go): deterministic top-K rendering of the folded
//     costs (text and JSON), byte-identical at any worker or segment
//     count.
//
// Determinism contract: all output paths iterate slices in index order,
// never maps — the root lint test enforces this for the whole package.
package attr

import (
	"fmt"
	"sort"

	"automatazoo/internal/automata"
)

// Pattern is one attributed source pattern. IDs are dense indices into
// the provenance's pattern list, assigned in compile order — stable for a
// given build.
type Pattern struct {
	ID   int32
	Name string
}

// Provenance maps automaton states to the patterns that produced them.
// States created by bookkeeping outside any pattern range (or whose
// origins were dropped by a transform) have an empty origin set and fold
// into the reserved "(unattributed)" bucket.
type Provenance struct {
	patterns []Pattern
	origins  [][]int32 // per state: sorted pattern IDs
}

// Unattributed is the name of the reserved bucket for states with no
// recorded origin.
const Unattributed = "(unattributed)"

// NumPatterns returns the number of source patterns (excluding the
// reserved unattributed bucket).
func (p *Provenance) NumPatterns() int { return len(p.patterns) }

// NumStates returns the number of automaton states the provenance covers.
func (p *Provenance) NumStates() int { return len(p.origins) }

// Origins returns the sorted pattern-ID set of one state (nil when
// unattributed). Callers must not modify it.
func (p *Provenance) Origins(state automata.StateID) []int32 {
	if int(state) >= len(p.origins) {
		return nil
	}
	return p.origins[state]
}

// Label renders a short human-readable tag for one state: its first
// origin pattern's name, with a "+n" suffix when merged states carry
// several origins. Unattributed states render as the empty string.
func (p *Provenance) Label(state automata.StateID) string {
	os := p.Origins(state)
	if len(os) == 0 {
		return ""
	}
	name := p.patterns[os[0]].Name
	if len(os) > 1 {
		return fmt.Sprintf("%s+%d", name, len(os)-1)
	}
	return name
}

// Ranges accumulates (name, state-range) records from a loader. Its Tag
// method has a plain func signature so compilers can accept a
// `func(name string, lo, hi int)` callback without importing this
// package.
type Ranges struct {
	patterns []Pattern
	ranges   [][2]int
	ids      []int32          // per range: owning pattern ID
	byName   map[string]int32 // name -> pattern ID (lookup only, never iterated)
}

// Tag records that builder states [lo, hi) belong to the named pattern.
// Empty ranges are dropped; a repeated name extends the existing pattern
// (a rule compiled as several disjoint state ranges stays one pattern).
func (r *Ranges) Tag(name string, lo, hi int) {
	if hi <= lo {
		return
	}
	if r.byName == nil {
		r.byName = map[string]int32{}
	}
	id, ok := r.byName[name]
	if !ok {
		id = int32(len(r.patterns))
		r.byName[name] = id
		r.patterns = append(r.patterns, Pattern{ID: id, Name: name})
	}
	r.ranges = append(r.ranges, [2]int{lo, hi})
	r.ids = append(r.ids, id)
}

// Provenance freezes the recorded ranges into a per-state origin map for
// an automaton with numStates states. Ranges may overlap (a state then
// carries several origins).
func (r *Ranges) Provenance(numStates int) *Provenance {
	origins := make([][]int32, numStates)
	for i, rg := range r.ranges {
		id := r.ids[i]
		for s := rg[0]; s < rg[1] && s < numStates; s++ {
			origins[s] = append(origins[s], id)
		}
	}
	for s, os := range origins {
		sortIDs(os)
		uniq := os[:0]
		for i, id := range os {
			if i == 0 || id != os[i-1] {
				uniq = append(uniq, id)
			}
		}
		origins[s] = uniq
	}
	return &Provenance{patterns: append([]Pattern(nil), r.patterns...), origins: origins}
}

// FromComponents builds a fallback provenance for automata without
// loader tagging: every weakly-connected component becomes one pattern
// named "<prefix><index>", where indices follow the deterministic
// component order of a.Components() (ascending smallest member state).
// Components containing report states additionally carry the smallest
// report code in their name, which is usually the pattern's rule index.
func FromComponents(a *automata.Automaton, prefix string) *Provenance {
	sizes, comp := a.Components()
	minCode := make([]int32, len(sizes))
	hasCode := make([]bool, len(sizes))
	for _, s := range a.Reports() {
		c := comp[s]
		code := a.ReportCode(s)
		if !hasCode[c] || code < minCode[c] {
			hasCode[c], minCode[c] = true, code
		}
	}
	patterns := make([]Pattern, len(sizes))
	origins := make([][]int32, a.NumStates())
	for c := range sizes {
		name := fmt.Sprintf("%s%d", prefix, c)
		if hasCode[c] {
			name = fmt.Sprintf("%s%d(code=%d)", prefix, c, minCode[c])
		}
		patterns[c] = Pattern{ID: int32(c), Name: name}
	}
	for s := range origins {
		origins[s] = []int32{comp[s]}
	}
	return &Provenance{patterns: patterns, origins: origins}
}

// Apply rebuilds the provenance for a transformed automaton described by
// a one-to-at-most-one state remap: remap[old] is the new ID of old
// state old, or automata.NoState when the state was dropped. Several old
// states may map to one new state (prefix-merge); the new state's origin
// set is the union of theirs.
func (p *Provenance) Apply(remap []automata.StateID, newStates int) *Provenance {
	origins := make([][]int32, newStates)
	for old, nw := range remap {
		if nw == automata.NoState || int(nw) >= newStates {
			continue
		}
		origins[nw] = unionIDs(origins[nw], p.origins[old])
	}
	return &Provenance{patterns: p.patterns, origins: origins}
}

// ApplyMulti rebuilds the provenance for a transform that may replicate
// states: copies[old] lists every new state derived from old state old
// (widening's orig/pad pairs, fan-limiting's replicas). Each replica
// inherits the full origin set.
func (p *Provenance) ApplyMulti(copies [][]automata.StateID, newStates int) *Provenance {
	origins := make([][]int32, newStates)
	for old, list := range copies {
		for _, nw := range list {
			if nw == automata.NoState || int(nw) >= newStates {
				continue
			}
			origins[nw] = unionIDs(origins[nw], p.origins[old])
		}
	}
	return &Provenance{patterns: p.patterns, origins: origins}
}

func sortIDs(ids []int32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// unionIDs merges two sorted ID sets, deduplicating, into a fresh sorted
// slice (reusing dst when src adds nothing).
func unionIDs(dst, src []int32) []int32 {
	if len(src) == 0 {
		return dst
	}
	if len(dst) == 0 {
		return append([]int32(nil), src...)
	}
	out := make([]int32, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		switch {
		case dst[i] < src[j]:
			out = append(out, dst[i])
			i++
		case dst[i] > src[j]:
			out = append(out, src[j])
			j++
		default:
			out = append(out, dst[i])
			i++
			j++
		}
	}
	out = append(out, dst[i:]...)
	out = append(out, src[j:]...)
	return out
}
