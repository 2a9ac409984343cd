// Package mesh implements the string-scoring mesh automata of the paper's
// Section X: Hamming-distance filters (Roy/Aluru-style match/mismatch
// grids) and Levenshtein/edit-distance filters (Tracy-style homogeneous
// Levenshtein automata with collapsed deletion transitions), plus the
// profile-driven parameter-selection experiment that produced Figure 1 and
// Table V.
//
// A filter encodes one pattern string of length l and reports at every
// stream offset where a window within distance d of the pattern ends.
// Hamming filters score aligned windows (substitutions only); Levenshtein
// filters allow substitutions, insertions, and deletions.
package mesh

import (
	"fmt"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/randx"
)

// DNA is the input alphabet used by the mesh benchmarks (and by the paper:
// "1,000,000 random DNA base-pair inputs {a,t,g,c}").
var DNA = []byte{'a', 't', 'g', 'c'}

// RandomDNA returns n random DNA symbols.
func RandomDNA(rng *randx.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = DNA[rng.Intn(4)]
	}
	return out
}

// BuildHamming appends one Hamming(l, d) filter for pattern into b. Every
// root-to-report path consumes exactly len(pattern) symbols and visits at
// most d mismatch states. Reports carry code.
//
// The construction is the homogeneous match/mismatch grid: state M(i,e)
// matches pattern[i] having seen e mismatches; X(i,e) matches the
// complement of pattern[i] as the e-th mismatch. Its closed-form size is
// l + d² + 2d(l−d) states (the paper's hand-pruned variant is d² smaller;
// see EXPERIMENTS.md).
func BuildHamming(b *automata.Builder, pattern []byte, d int, code int32) error {
	exits, err := BuildHammingSegment(b, pattern, d, nil)
	if err != nil {
		return err
	}
	for _, id := range exits {
		b.SetReport(id, code)
	}
	return nil
}

// BuildHammingSegment appends a Hamming(l, d) mesh segment. If entries is
// nil the segment's first column consists of all-input start states;
// otherwise every entry state is wired to the first column (so segments
// compose sequentially, e.g. the seed / PAM / tail regions of a CRISPR
// guide filter). It returns the segment's exit states (the last column),
// which the caller can report on or feed into a following segment.
func BuildHammingSegment(b *automata.Builder, pattern []byte, d int, entries []automata.StateID) ([]automata.StateID, error) {
	l := len(pattern)
	if l == 0 || d < 0 || d >= l {
		return nil, fmt.Errorf("mesh: bad hamming parameters l=%d d=%d", l, d)
	}
	match := make([][]automata.StateID, l+1) // match[i][e], 1-based i
	miss := make([][]automata.StateID, l+1)  // miss[i][e]
	for i := 1; i <= l; i++ {
		match[i] = make([]automata.StateID, d+1)
		miss[i] = make([]automata.StateID, d+1)
		for e := range match[i] {
			match[i][e] = automata.NoState
			miss[i][e] = automata.NoState
		}
		cls := charset.Single(pattern[i-1])
		ncls := cls.Negate()
		firstStart := automata.StartNone
		if i == 1 && entries == nil {
			firstStart = automata.StartAllInput
		}
		for e := 0; e <= d && e <= i-1; e++ {
			match[i][e] = b.AddSTE(cls, firstStart)
		}
		for e := 1; e <= d && e <= i; e++ {
			miss[i][e] = b.AddSTE(ncls, firstStart)
		}
	}
	for _, entry := range entries {
		b.AddEdge(entry, match[1][0])
		if d >= 1 {
			b.AddEdge(entry, miss[1][1])
		}
	}
	link := func(from automata.StateID, i, e int) {
		if i > l || from == automata.NoState {
			return
		}
		if e <= d && match[i][e] != automata.NoState {
			b.AddEdge(from, match[i][e])
		}
		if e+1 <= d && miss[i][e+1] != automata.NoState {
			b.AddEdge(from, miss[i][e+1])
		}
	}
	for i := 1; i < l; i++ {
		for e := 0; e <= d; e++ {
			link(match[i][e], i+1, e)
			link(miss[i][e], i+1, e)
		}
	}
	var exits []automata.StateID
	for e := 0; e <= d; e++ {
		if match[l][e] != automata.NoState {
			exits = append(exits, match[l][e])
		}
		if e >= 1 && miss[l][e] != automata.NoState {
			exits = append(exits, miss[l][e])
		}
	}
	return exits, nil
}

// BuildClassChain appends a chain of arbitrary character classes (e.g. a
// PAM site "NGG"), wired from entries (nil ⇒ all-input starts on the
// head), returning the tail as a single-element exit list.
func BuildClassChain(b *automata.Builder, classes []charset.Set, entries []automata.StateID) ([]automata.StateID, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("mesh: empty class chain")
	}
	prev := automata.NoState
	for i, cls := range classes {
		st := automata.StartNone
		if i == 0 && entries == nil {
			st = automata.StartAllInput
		}
		id := b.AddSTE(cls, st)
		if i == 0 {
			for _, e := range entries {
				b.AddEdge(e, id)
			}
		} else {
			b.AddEdge(prev, id)
		}
		prev = id
	}
	return []automata.StateID{prev}, nil
}

// BuildLevenshtein appends one Levenshtein(l, d) filter for pattern into b.
// It is the homogeneous Levenshtein NFA over cells (j, e) — j pattern
// characters consumed, e edits — with deletion (ε) transitions collapsed
// into the edge set, which is what gives edit-distance meshes their high
// fan-out (Table I: 11.17 edges/node at d=10). Cell (j, e) accepts when
// e + (l − j) ≤ d (the remaining pattern can be deleted within budget).
//
// Each cell is realized as up to two STEs: m(j,e) arrives by matching
// pattern[j], x(j,e) arrives by substitution or insertion (matching any
// symbol). Reports carry code.
func BuildLevenshtein(b *automata.Builder, pattern []byte, d int, code int32) error {
	l := len(pattern)
	if l == 0 || d < 0 || d >= l {
		return fmt.Errorf("mesh: bad levenshtein parameters l=%d d=%d", l, d)
	}
	any := charset.All()
	m := make([][]automata.StateID, l+1) // m[j][e], j=1..l
	x := make([][]automata.StateID, l+1) // x[j][e], j=1..l, e>=1
	accepts := func(j, e int) bool { return e+(l-j) <= d }
	for j := 1; j <= l; j++ {
		m[j] = make([]automata.StateID, d+1)
		x[j] = make([]automata.StateID, d+1)
		for e := range m[j] {
			m[j][e] = automata.NoState
			x[j][e] = automata.NoState
		}
		cls := charset.Single(pattern[j-1])
		for e := 0; e <= d; e++ {
			m[j][e] = b.AddSTE(cls, automata.StartNone)
			if accepts(j, e) {
				b.SetReport(m[j][e], code)
			}
		}
		for e := 1; e <= d; e++ {
			x[j][e] = b.AddSTE(any, automata.StartNone)
			if accepts(j, e) {
				b.SetReport(x[j][e], code)
			}
		}
	}
	// enableFrom wires the out-edges of an active cell (j, e): for every
	// cell (j+k, e+k) in its deletion closure, add match / substitute /
	// insert successors.
	enableFrom := func(id automata.StateID, j, e int) {
		for k := 0; e+k <= d; k++ {
			jc, ec := j+k, e+k
			if jc > l {
				break
			}
			if jc < l && m[jc+1][ec] != automata.NoState {
				b.AddEdge(id, m[jc+1][ec]) // match pattern[jc+1]
			}
			if jc < l && ec+1 <= d {
				b.AddEdge(id, x[jc+1][ec+1]) // substitution
			}
			if ec+1 <= d && jc >= 1 {
				b.AddEdge(id, x[jc][ec+1]) // insertion
			}
		}
	}
	for j := 1; j <= l; j++ {
		for e := 0; e <= d; e++ {
			if m[j][e] != automata.NoState {
				enableFrom(m[j][e], j, e)
			}
			if e >= 1 && x[j][e] != automata.NoState {
				enableFrom(x[j][e], j, e)
			}
		}
	}
	// Starts: the virtual cell (0,0) and its deletion closure (k,k) feed
	// the first consumed symbol.
	for k := 0; k <= d; k++ {
		if k < l {
			b.SetStart(m[k+1][k], automata.StartAllInput)
		}
		if k+1 <= d && k+1 <= l {
			b.SetStart(x[k+1][k+1], automata.StartAllInput)
		}
	}
	return nil
}

// Kernel selects the scoring kernel of a filter set.
type Kernel int

const (
	// Hamming is substitution-only scoring.
	Hamming Kernel = iota
	// Levenshtein is full edit-distance scoring.
	Levenshtein
)

func (k Kernel) String() string {
	if k == Hamming {
		return "Hamming"
	}
	return "Levenshtein"
}

// Build constructs a filter for pattern with the given kernel.
func (k Kernel) Build(b *automata.Builder, pattern []byte, d int, code int32) error {
	if k == Hamming {
		return BuildHamming(b, pattern, d, code)
	}
	return BuildLevenshtein(b, pattern, d, code)
}

// Benchmark generates the AutomataZoo mesh benchmark: n filters of length l
// at distance d over random DNA patterns. Filter i reports with code i.
func Benchmark(kernel Kernel, n, l, d int, seed uint64) (*automata.Automaton, error) {
	rng := randx.New(seed)
	b := automata.NewBuilder()
	for i := 0; i < n; i++ {
		if err := kernel.Build(b, RandomDNA(rng, l), d, int32(i)); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
