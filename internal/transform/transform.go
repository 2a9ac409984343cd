// Package transform implements the automata transformations the suite's
// methodology depends on:
//
//   - PrefixMerge: VASim's standard prefix-merging optimization, used to
//     produce the "Compressed States" column of Table I;
//   - Widen: the YARA "wide" transformation (16-bit symbols with zero high
//     bytes) implemented as zero-matching pad states;
//   - Trim: removal of states unreachable from any start state.
//
// All transformations return new frozen automata; inputs are never
// modified.
package transform

import (
	"fmt"
	"math/bits"
	"slices"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

// PrefixMerge repeatedly merges states that are indistinguishable from the
// input's point of view: same character class, same start type, same
// report disposition, and identical predecessor sets. Two such states are
// enabled under exactly the same conditions and match exactly the same
// symbols, so folding them (unioning their out-edges) preserves the
// automaton's report behaviour while removing duplicated pattern prefixes —
// VASim's standard optimization. Counter elements are never merged.
//
// Returns the compressed automaton and the number of states removed.
func PrefixMerge(a *automata.Automaton) (*automata.Automaton, int) {
	n := a.NumStates()
	// rep[i] is the canonical representative of state i under merging:
	// always the lowest ID of its class.
	rep := make([]automata.StateID, n)
	for i := range rep {
		rep[i] = automata.StateID(i)
	}
	find := func(x automata.StateID) automata.StateID {
		for rep[x] != x {
			rep[x] = rep[rep[x]] // path halving
			x = rep[x]
		}
		return x
	}

	// Predecessor lists of the input, built once. Every member of a class
	// was merged in with the same canonical predecessor set as its
	// representative, and coarsening keeps equal sets equal, so a class's
	// key needs only its representative's own predecessor list.
	pred := a.Reverse()
	// canon writes the sorted, deduplicated representatives of id's
	// predecessors into buf.
	canon := func(buf []automata.StateID, id automata.StateID) []automata.StateID {
		buf = buf[:0]
		for _, p := range pred[id] {
			buf = append(buf, find(p))
		}
		slices.Sort(buf)
		return slices.Compact(buf)
	}

	// Representatives are indexed by a chained hash table over their key
	// (class handle, start, report flag+code, canonical predecessors);
	// the full hash is kept per state and a hit is verified field by
	// field, so equal keys — and only equal keys — merge.
	mask := uint32(1)<<bits.Len(uint(2*n)) - 1
	bucket := make([]automata.StateID, mask+1) // head of each chain
	for i := range bucket {
		bucket[i] = automata.NoState
	}
	chain := make([]automata.StateID, n) // next state in the same bucket
	hash := make([]uint64, n)            // key hash a state is filed under
	unfile := func(id automata.StateID) {
		at := &bucket[uint32(hash[id])&mask]
		for *at != id {
			at = &chain[*at]
		}
		*at = chain[id]
	}

	// Members of each class as a linked list through its representative,
	// so a merge can visit the successors of every state it renamed.
	next := make([]automata.StateID, n)
	last := make([]automata.StateID, n)
	for i := range next {
		next[i], last[i] = automata.NoState, automata.StateID(i)
	}

	// Worklist refinement: a state is re-examined only when one of its
	// predecessors changed representative, and leaves the table while it
	// waits, so the table holds exactly the representatives whose key is
	// current. Rounds run in ascending ID order, so chains laid out head
	// first collapse in the first round.
	work := make([]automata.StateID, 0, n)
	queued := make([]bool, n)
	for s := 0; s < n; s++ {
		if a.Kind(automata.StateID(s)) != automata.KindCounter {
			work = append(work, automata.StateID(s))
			queued[s] = true
		}
	}
	var later, key, other []automata.StateID
	for len(work) > 0 {
		for _, id := range work {
			queued[id] = false
			key = canon(key, id)
			h := keyHash(a, id, key)
			at := bucket[uint32(h)&mask]
			for at != automata.NoState {
				if hash[at] == h && sameLabel(a, at, id) {
					if other = canon(other, at); slices.Equal(key, other) {
						break
					}
				}
				at = chain[at]
			}
			keep, gone := id, at
			if at == automata.NoState || at > id {
				// id is new here, or takes over as the lowest ID.
				hash[id] = h
				chain[id] = bucket[uint32(h)&mask]
				bucket[uint32(h)&mask] = id
				if at == automata.NoState {
					continue
				}
				unfile(at)
			} else {
				keep, gone = at, id
			}
			rep[gone] = keep
			for m := gone; m != automata.NoState; m = next[m] {
				for _, t := range a.Succ(m) {
					t = find(t)
					if !queued[t] && a.Kind(t) != automata.KindCounter {
						queued[t] = true
						unfile(t)
						later = append(later, t)
					}
				}
			}
			next[last[keep]] = gone
			last[keep] = last[gone]
		}
		slices.Sort(later)
		work, later = later, work[:0]
	}

	// Rebuild with representatives only.
	b := automata.NewBuilder()
	newID := make([]automata.StateID, n)
	for i := range newID {
		newID[i] = automata.NoState
	}
	removed := 0
	for s := 0; s < n; s++ {
		id := automata.StateID(s)
		if find(id) != id {
			removed++
			continue
		}
		var nid automata.StateID
		if a.Kind(id) == automata.KindCounter {
			cfg, _ := a.CounterConfig(id)
			nid = b.AddCounter(cfg.Target, cfg.Mode)
		} else {
			nid = b.AddSTE(a.Class(id), a.Start(id))
		}
		if a.IsReport(id) {
			b.SetReport(nid, a.ReportCode(id))
		}
		newID[id] = nid
	}
	for s := 0; s < n; s++ {
		id := automata.StateID(s)
		from := newID[find(id)]
		for _, t := range a.Succ(id) {
			b.AddEdge(from, newID[find(t)])
		}
	}
	return b.MustBuild(), removed
}

// sameLabel reports whether x and y agree on everything in the merge key
// except their predecessors.
func sameLabel(a *automata.Automaton, x, y automata.StateID) bool {
	return a.ClassHandle(x) == a.ClassHandle(y) && a.Start(x) == a.Start(y) &&
		a.IsReport(x) == a.IsReport(y) && (!a.IsReport(x) || a.ReportCode(x) == a.ReportCode(y))
}

// keyHash hashes id's merge key: its label and its canonical predecessors.
func keyHash(a *automata.Automaton, id automata.StateID, pred []automata.StateID) uint64 {
	mix := func(h uint64, v uint32) uint64 {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
		return h ^ h>>29
	}
	h := mix(uint64(len(pred)), uint32(a.ClassHandle(id)))
	h = mix(h, uint32(a.Start(id)))
	if a.IsReport(id) {
		h = mix(h, 1)
		h = mix(h, uint32(a.ReportCode(id)))
	}
	for _, p := range pred {
		h = mix(h, p)
	}
	return h
}

// Widen converts a byte-pattern automaton into its "wide" (UTF-16LE-style)
// form: every character is followed by a zero byte, implemented by routing
// every original transition through a fresh pad state matching only 0x00.
// Reports move onto the pad state that follows the original reporting
// state, so a widened match spans the full widened pattern. The result has
// exactly 2x the states. Counter automata are not supported.
func Widen(a *automata.Automaton) (*automata.Automaton, error) {
	if a.NumCounters() > 0 {
		return nil, fmt.Errorf("transform: cannot widen automata with counters")
	}
	n := a.NumStates()
	b := automata.NewBuilder()
	orig := make([]automata.StateID, n)
	pad := make([]automata.StateID, n)
	zero := charset.Single(0)
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		orig[i] = b.AddSTE(a.Class(id), a.Start(id))
		pad[i] = b.AddSTE(zero, automata.StartNone)
		b.AddEdge(orig[i], pad[i])
		if a.IsReport(id) {
			b.SetReport(pad[i], a.ReportCode(id))
		}
	}
	for i := 0; i < n; i++ {
		for _, t := range a.Succ(automata.StateID(i)) {
			b.AddEdge(pad[i], orig[t])
		}
	}
	return b.Build()
}

// Trim removes states unreachable from any start state, returning the
// trimmed automaton and the number of removed states.
func Trim(a *automata.Automaton) (*automata.Automaton, int) {
	reach := a.ReachableFromStarts()
	n := a.NumStates()
	b := automata.NewBuilder()
	newID := make([]automata.StateID, n)
	removed := 0
	for i := 0; i < n; i++ {
		id := automata.StateID(i)
		if !reach[i] {
			newID[i] = automata.NoState
			removed++
			continue
		}
		if a.Kind(id) == automata.KindCounter {
			cfg, _ := a.CounterConfig(id)
			newID[i] = b.AddCounter(cfg.Target, cfg.Mode)
		} else {
			newID[i] = b.AddSTE(a.Class(id), a.Start(id))
		}
		if a.IsReport(id) {
			b.SetReport(newID[i], a.ReportCode(id))
		}
	}
	for i := 0; i < n; i++ {
		if newID[i] == automata.NoState {
			continue
		}
		for _, t := range a.Succ(automata.StateID(i)) {
			if newID[t] != automata.NoState {
				b.AddEdge(newID[i], newID[t])
			}
		}
	}
	return b.MustBuild(), removed
}
