// Package spm implements the Sequence Matching benchmarks (sequential
// pattern mining support counting, Wang et al. CF'16). A sequential
// pattern <q1, q2, …, qp> is supported by a transaction — a sequence of
// itemsets, each a sorted set of items — when q1 appears in some itemset,
// q2 in a strictly later itemset, and so on. The automata count pattern
// occurrences in a streaming transaction database.
//
// Each pattern position ("slot") is a five-state structure:
//
//	W  wait: items below the slot's item, self-looping
//	M  match: the slot's item
//	T  trail: items above the slot's item, self-looping (consume the rest
//	   of the itemset)
//	S  separator: the end-of-itemset symbol
//	G  gap: anything, self-looping (later itemsets may intervene)
//
// which yields exactly 5·p states per filter — Table I's 30 states for
// 6-position filters and 50 for 10-slot structures.
//
// Three benchmark variants mirror the paper:
//
//   - plain: report on every pattern occurrence;
//   - wC (WithCounters): one AP counter element per filter accumulates
//     support and reports once at a threshold, cutting report traffic
//     (adds exactly one element per subgraph, as in Table I);
//   - padded (Padding > 0): the symbol-replacement design of Section VII —
//     the structure has extra soft-configurable slots whose states are
//     configured to match a reserved item that never occurs. They do no
//     computation but are repeatedly enabled, which is precisely the
//     performance-portability hazard Table III measures.
package spm

import (
	"fmt"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/randx"
)

// Alphabet layout.
const (
	// MaxItem is the largest item code; items are bytes 1..MaxItem.
	MaxItem = 64
	// Sep terminates an itemset.
	Sep byte = 0xFF
	// PadItem is the reserved item assigned to padding slots; it never
	// occurs in generated inputs.
	PadItem byte = 0xFD
)

// Pattern is a sequential pattern: one item per position (the common
// single-item-itemset form used for support counting).
type Pattern struct {
	Items []byte // each in 1..MaxItem
}

// RandomPattern draws a pattern with p positions.
func RandomPattern(rng *randx.Rand, p int) Pattern {
	items := make([]byte, p)
	for i := range items {
		items[i] = byte(1 + rng.Intn(MaxItem))
	}
	return Pattern{Items: items}
}

// Config selects the benchmark variant.
type Config struct {
	// Padding adds this many dead soft-reconfiguration slots per filter
	// (each 5 states configured to PadItem).
	Padding int
	// WithCounter routes occurrences into a latching support counter that
	// reports once at SupportThreshold.
	WithCounter      bool
	SupportThreshold uint32
}

// Build appends one pattern filter to b, reporting with code.
func Build(b *automata.Builder, pat Pattern, cfg Config, code int32) error {
	if len(pat.Items) == 0 {
		return fmt.Errorf("spm: empty pattern")
	}
	if cfg.WithCounter && cfg.SupportThreshold == 0 {
		return fmt.Errorf("spm: counter variant needs a support threshold")
	}
	for _, it := range pat.Items {
		if it == 0 || it > MaxItem {
			return fmt.Errorf("spm: item %d out of range", it)
		}
	}
	anyItem := charset.Range(1, MaxItem)
	sep := charset.Single(Sep)
	gapClass := anyItem.Union(sep)

	var prevOut []automata.StateID // states enabling the next slot's entry
	var lastS automata.StateID
	for i, q := range pat.Items {
		below := charset.Range(1, q-1)
		above := charset.Range(q+1, MaxItem)

		st := automata.StartNone
		if i == 0 {
			st = automata.StartAllInput
		}
		w := b.AddSTE(below, st)
		m := b.AddSTE(charset.Single(q), st)
		tr := b.AddSTE(above, automata.StartNone)
		s := b.AddSTE(sep, automata.StartNone)
		g := b.AddSTE(gapClass, automata.StartNone)

		b.AddEdge(w, w)
		b.AddEdge(w, m)
		b.AddEdge(m, tr)
		b.AddEdge(m, s)
		b.AddEdge(tr, tr)
		b.AddEdge(tr, s)
		b.AddEdge(s, g)
		b.AddEdge(g, g)
		for _, p := range prevOut {
			b.AddEdge(p, w)
			b.AddEdge(p, m)
		}
		prevOut = []automata.StateID{s, g}
		lastS = s
	}

	// Padding slots: same five-state structure, but every state is
	// configured to the reserved item, so none ever matches. Their heads
	// hang off the structure's scanning spine — the first slot's wait
	// state (active while hunting for the first item) and its gap state
	// (persistently active once scanning is under way) — so each pad head
	// is re-enabled nearly every cycle: pure overhead that never changes
	// the computed kernel, exactly the soft-reconfiguration hazard of
	// §VII.
	padClass := charset.Single(PadItem)
	firstW := firstSlotState(b, pat, 0)
	firstG := firstSlotState(b, pat, 4)
	for pi := 0; pi < cfg.Padding; pi++ {
		var ids [5]automata.StateID
		for j := range ids {
			ids[j] = b.AddSTE(padClass, automata.StartNone)
		}
		for j := 0; j < 4; j++ {
			b.AddEdge(ids[j], ids[j+1])
		}
		// Two of each pad slot's states sit on the spine, as reconfigurable
		// slots are wired into both the item-scan and the set-boundary
		// paths of the real structure.
		b.AddEdge(firstW, ids[0])
		b.AddEdge(firstG, ids[0])
		b.AddEdge(firstG, ids[1])
	}

	if cfg.WithCounter {
		c := b.AddCounter(cfg.SupportThreshold, automata.CountLatch)
		b.AddEdge(lastS, c)
		b.SetReport(c, code)
	} else {
		b.SetReport(lastS, code)
	}
	return nil
}

// firstSlotState recovers a state of the filter's first slot by its offset
// within the 5-state slot layout (0=W, 1=M, 2=T, 3=S, 4=G), counting back
// from the current builder size.
func firstSlotState(b *automata.Builder, pat Pattern, offset int) automata.StateID {
	base := automata.StateID(b.NumStates() - 5*len(pat.Items))
	return base + automata.StateID(offset)
}

// Benchmark builds n filters with p positions each under cfg. Filter i
// reports with code i.
func Benchmark(n, p int, cfg Config, seed uint64) (*automata.Automaton, error) {
	rng := randx.New(seed)
	b := automata.NewBuilder()
	for i := 0; i < n; i++ {
		if err := Build(b, RandomPattern(rng, p), cfg, int32(i)); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// Input generates a transaction-database stream: itemsets of random sorted
// items terminated by Sep. Roughly plantEvery itemsets, a run of itemsets
// containing a given pattern's items in order is emitted so filters have
// real support to count (plantEvery <= 0 disables planting).
func Input(patterns []Pattern, itemsets, itemsPerSet, plantEvery int, seed uint64) []byte {
	rng := randx.New(seed ^ 0x59a3)
	var out []byte
	emitSet := func(extra []byte) {
		k := 1 + rng.Intn(itemsPerSet)
		seen := map[byte]bool{}
		for _, e := range extra {
			seen[e] = true
		}
		items := append([]byte(nil), extra...)
		for len(items) < k {
			it := byte(1 + rng.Intn(MaxItem))
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		sortBytes(items)
		out = append(out, items...)
		out = append(out, Sep)
	}
	next := 0
	for i := 0; i < itemsets; i++ {
		if plantEvery > 0 && len(patterns) > 0 && i%plantEvery == 0 {
			pat := patterns[next%len(patterns)]
			next++
			for _, q := range pat.Items {
				emitSet([]byte{q})
				i++
			}
			if i >= itemsets {
				break
			}
		}
		emitSet(nil)
	}
	return out
}

func sortBytes(xs []byte) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
