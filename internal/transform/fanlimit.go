package transform

import (
	"fmt"

	"automatazoo/internal/automata"
)

// LimitFanOut rewrites the automaton so no STE has more than max outgoing
// edges, the routing constraint spatial fabrics impose (the Micron AP's
// routing matrix bounds per-STE drive). A state with excess fan-out is
// replicated: each copy carries the same class/start/report and a subset
// of the successors, and every predecessor drives every copy, so all
// copies match in lockstep and the language is unchanged — VASim's
// fan-out enforcement strategy. Splitting raises predecessor fan-out, so
// the pass iterates to a fixpoint (bounded; returns an error if max is
// too small to converge, e.g. below the copy-group size forced by a
// self-loop).
//
// Counters are never split (they hold runtime state).
func LimitFanOut(a *automata.Automaton, max int) (*automata.Automaton, error) {
	if max < 2 {
		return nil, fmt.Errorf("transform: fan-out limit must be >= 2")
	}
	cur := a
	for iter := 0; iter < 64; iter++ {
		changed, next, err := limitFanOutOnce(cur, max)
		if err != nil {
			return nil, err
		}
		if !changed {
			return cur, nil
		}
		cur = next
	}
	return nil, fmt.Errorf("transform: fan-out limiting did not converge at max=%d", max)
}

func limitFanOutOnce(a *automata.Automaton, max int) (bool, *automata.Automaton, error) {
	n := a.NumStates()
	over := false
	for i := 0; i < n && !over; i++ {
		if a.OutDegree(automata.StateID(i)) > max && a.Kind(automata.StateID(i)) == automata.KindSTE {
			over = true
		}
	}
	if !over {
		return false, a, nil
	}
	b := automata.NewBuilder()
	// copies[old] lists the new IDs of old's replicas (len 1 when not
	// split).
	copies := make([][]automata.StateID, n)
	hasSelf := func(id automata.StateID) bool {
		for _, t := range a.Succ(id) {
			if t == id {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		if a.Kind(id) == automata.KindCounter {
			cfg, _ := a.CounterConfig(id)
			nid := b.AddCounter(cfg.Target, cfg.Mode)
			if a.IsReport(id) {
				b.SetReport(nid, a.ReportCode(id))
			}
			copies[i] = []automata.StateID{nid}
			continue
		}
		deg := a.OutDegree(id)
		k := 1
		if deg > max {
			// Self-loop copies must drive the whole copy group, consuming
			// k slots of each copy's budget; solve k(max-k) >= deg-k for
			// the smallest workable k, or the plain ceiling without one.
			if hasSelf(id) {
				found := false
				for k = 2; k < max; k++ {
					if k*(max-k) >= deg-1 { // non-self successors per group
						found = true
						break
					}
				}
				if !found {
					return false, nil, fmt.Errorf(
						"transform: state %d (self-loop, fan-out %d) cannot meet limit %d", id, deg, max)
				}
			} else {
				k = (deg + max - 1) / max
			}
		}
		copies[i] = make([]automata.StateID, k)
		for c := 0; c < k; c++ {
			nid := b.AddSTE(a.Class(id), a.Start(id))
			// Only the first copy reports: replicas fire in lockstep and
			// would otherwise duplicate every report.
			if a.IsReport(id) && c == 0 {
				b.SetReport(nid, a.ReportCode(id))
			}
			copies[i][c] = nid
		}
	}
	// Wire edges: for every original edge u→v, every copy of u drives
	// copies of v; when u is split, its non-self successors are
	// partitioned round-robin across u's copies. Self-loops become full
	// copy-group cliques.
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		ucopies := copies[i]
		var nonSelf []automata.StateID
		self := false
		for _, t := range a.Succ(id) {
			if t == id {
				self = true
			} else {
				nonSelf = append(nonSelf, t)
			}
		}
		if self {
			for _, uc := range ucopies {
				for _, uc2 := range ucopies {
					b.AddEdge(uc, uc2)
				}
			}
		}
		if len(ucopies) == 1 {
			for _, t := range nonSelf {
				for _, vc := range copies[t] {
					b.AddEdge(ucopies[0], vc)
				}
			}
			continue
		}
		// Partition: successor j goes to copy j%k. A successor that was
		// itself split contributes all its copies to the same partition
		// slot sequence.
		for j, t := range nonSelf {
			uc := ucopies[j%len(ucopies)]
			for _, vc := range copies[t] {
				b.AddEdge(uc, vc)
			}
		}
	}
	nb, err := b.Build()
	return true, nb, err
}
