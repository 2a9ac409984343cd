package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// StateProfile holds per-state activity counters for one engine run — the
// data behind VASim's --profile heatmaps and this suite's `azoo profile`.
// Slices are indexed by dense state ID. The profile is owned by a single
// engine and is not synchronized; merge profiles from parallel engines
// with Merge.
type StateProfile struct {
	// Activations[s] counts cycles in which state s matched the input
	// symbol (the paper's "active set", attributed per state).
	Activations []int64
}

// NewStateProfile returns a zeroed profile for an automaton of n states.
func NewStateProfile(n int) *StateProfile {
	return &StateProfile{Activations: make([]int64, n)}
}

// Reset zeroes all counters in place.
func (p *StateProfile) Reset() {
	for i := range p.Activations {
		p.Activations[i] = 0
	}
}

// Merge adds other's counts into p. Profiles must be the same size.
func (p *StateProfile) Merge(other *StateProfile) {
	for i, v := range other.Activations {
		p.Activations[i] += v
	}
}

// TotalActivations returns the sum of all per-state activation counts.
func (p *StateProfile) TotalActivations() int64 {
	var t int64
	for _, v := range p.Activations {
		t += v
	}
	return t
}

// HeatEntry is one row of a heatmap: a state, its subgraph, and its
// activity counts. Share is this state's fraction of all activations.
// Pattern, when set, names the source pattern that produced the state
// (from a cost-attribution provenance map); WriteHeatmap renders the
// column only when at least one entry carries a label.
type HeatEntry struct {
	State       uint32
	Subgraph    int32
	Pattern     string
	Activations int64
	Share       float64
}

// TopK returns the k hottest states by activation count (ties broken by
// state ID for determinism), annotated with subgraph membership when comp
// is non-nil (comp[s] = subgraph index, as returned by
// automata.Components). States with zero activations are omitted.
func (p *StateProfile) TopK(k int, comp []int32) []HeatEntry {
	total := p.TotalActivations()
	entries := make([]HeatEntry, 0, 64)
	for s, n := range p.Activations {
		if n == 0 {
			continue
		}
		e := HeatEntry{State: uint32(s), Subgraph: -1, Activations: n}
		if comp != nil {
			e.Subgraph = comp[s]
		}
		if total > 0 {
			e.Share = float64(n) / float64(total)
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Activations != entries[j].Activations {
			return entries[i].Activations > entries[j].Activations
		}
		return entries[i].State < entries[j].State
	})
	if k > 0 && len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

// SubgraphHeat aggregates activations per subgraph and returns the k
// hottest, as (subgraph, activations, share) entries. comp maps state →
// subgraph.
type SubgraphHeat struct {
	Subgraph    int32
	States      int
	Activations int64
	Share       float64
}

// TopSubgraphs returns the k subgraphs with the most activations.
func (p *StateProfile) TopSubgraphs(k int, comp []int32) []SubgraphHeat {
	if comp == nil {
		return nil
	}
	acts := map[int32]*SubgraphHeat{}
	var total int64
	for s, n := range p.Activations {
		if n == 0 {
			continue
		}
		c := comp[s]
		h := acts[c]
		if h == nil {
			h = &SubgraphHeat{Subgraph: c}
			acts[c] = h
		}
		h.States++
		h.Activations += n
		total += n
	}
	out := make([]SubgraphHeat, 0, len(acts))
	for _, h := range acts {
		if total > 0 {
			h.Share = float64(h.Activations) / float64(total)
		}
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Activations != out[j].Activations {
			return out[i].Activations > out[j].Activations
		}
		return out[i].Subgraph < out[j].Subgraph
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

const heatBarWidth = 40

func heatBar(share, maxShare float64) string {
	if maxShare <= 0 {
		return ""
	}
	n := int(share/maxShare*heatBarWidth + 0.5)
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// WriteHeatmap renders a per-state heatmap (TopK output) as aligned text
// with proportional bars, the human-readable form `azoo profile` prints.
func WriteHeatmap(w io.Writer, entries []HeatEntry, symbols int64) error {
	if len(entries) == 0 {
		_, err := fmt.Fprintln(w, "(no state activations)")
		return err
	}
	// The pattern column appears only when a provenance map labeled at
	// least one entry, sized to the widest label so the table stays
	// aligned; unlabeled heatmaps keep the historical layout exactly.
	patWidth := 0
	for _, e := range entries {
		if len(e.Pattern) > patWidth {
			patWidth = len(e.Pattern)
		}
	}
	if patWidth > 0 && patWidth < len("Pattern") {
		patWidth = len("Pattern")
	}
	maxShare := entries[0].Share
	if patWidth > 0 {
		if _, err := fmt.Fprintf(w, "%6s %9s %-*s %12s %12s %8s  %s\n",
			"State", "Subgraph", patWidth, "Pattern", "Activations", "Act/Symbol", "Share", "Heat"); err != nil {
			return err
		}
	} else if _, err := fmt.Fprintf(w, "%6s %9s %12s %12s %8s  %s\n",
		"State", "Subgraph", "Activations", "Act/Symbol", "Share", "Heat"); err != nil {
		return err
	}
	for _, e := range entries {
		perSym := 0.0
		if symbols > 0 {
			perSym = float64(e.Activations) / float64(symbols)
		}
		sub := "-"
		if e.Subgraph >= 0 {
			sub = fmt.Sprintf("%d", e.Subgraph)
		}
		if patWidth > 0 {
			pat := e.Pattern
			if pat == "" {
				pat = "-"
			}
			if _, err := fmt.Fprintf(w, "%6d %9s %-*s %12d %12.4f %7.2f%%  %s\n",
				e.State, sub, patWidth, pat, e.Activations, perSym, e.Share*100,
				heatBar(e.Share, maxShare)); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%6d %9s %12d %12.4f %7.2f%%  %s\n",
			e.State, sub, e.Activations, perSym, e.Share*100,
			heatBar(e.Share, maxShare)); err != nil {
			return err
		}
	}
	return nil
}

// WriteSubgraphHeatmap renders the per-subgraph aggregation.
func WriteSubgraphHeatmap(w io.Writer, entries []SubgraphHeat) error {
	if len(entries) == 0 {
		_, err := fmt.Fprintln(w, "(no subgraph activations)")
		return err
	}
	maxShare := entries[0].Share
	if _, err := fmt.Fprintf(w, "%9s %8s %12s %8s  %s\n",
		"Subgraph", "States", "Activations", "Share", "Heat"); err != nil {
		return err
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "%9d %8d %12d %7.2f%%  %s\n",
			e.Subgraph, e.States, e.Activations, e.Share*100,
			heatBar(e.Share, maxShare)); err != nil {
			return err
		}
	}
	return nil
}
