// Package difftest is the cross-engine differential oracle. It generates
// seeded random automata and inputs and scans each through every cell of
// one matrix, each cell a scan.Run scan — the driver the CLI uses, so the
// oracle checks the scan path that ships:
//
//	engine     nfa, prefilter, dfa, and dfa under a governor cache budget
//	           of one byte (dfa-starved) or 4 KiB (dfa-tight), which must
//	           both fall back
//	transform  none, or prefix-merge
//	mode       (-j 1, -segments 1), (4, 1) component slices, (1, N) and
//	           (4, N), with N chosen per trial and a 48-byte warmup
//
// plus a crash-resume cell (resume.go) and a bit-level trial (checkBit).
// Every cell's canonical (offset, code) multiset must equal that of the
// reference cell (nfa, no transform, -j 1 -segments 1), and so must its
// sim.Stats: field for field on untransformed nfa and prefilter cells,
// Symbols and Reports elsewhere (dfa keeps no active set; prefix-merge
// changes the state set). The generator gives every reporting state a
// unique code, so prefix-merge never merges two reporters and multiset
// equality is the honest bar. A cell whose engine rejects the automaton by
// type (dfa.ErrCounters) is not applicable; any other error is a
// divergence. A divergence names its cell and first diverging offset.
//
// The paper's throughput tables are only meaningful because every engine
// agrees on *what matches where*; Hyperscan guards the same property with
// its hscollider tool. Every generator consumes an explicit randx seed, so
// any divergence reproduces from its seed alone — the CLI (azoo difftest)
// prints seeds in its JSON report and the fuzz targets store them in the
// corpus.
package difftest

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"automatazoo/internal/automata"
	"automatazoo/internal/bitnfa"
	"automatazoo/internal/charset"
	"automatazoo/internal/randx"
)

// Event is one report, reduced to the fields every engine must agree on.
// State IDs are deliberately dropped: transforms renumber states, so only
// (offset, code) is comparable across engines.
type Event struct {
	Offset int64 `json:"offset"`
	Code   int32 `json:"code"`
}

func canon(evs []Event) []Event {
	slices.SortFunc(evs, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Offset, b.Offset), cmp.Compare(a.Code, b.Code))
	})
	return evs
}

// Divergence describes the first point where a cell disagrees with the
// reference cell.
type Divergence struct {
	Cell       string  `json:"cell"`
	Seed       uint64  `json:"seed,omitempty"`       // set by Soak; zero for direct oracle calls
	Offset     int64   `json:"offset"`               // first diverging input offset
	Missing    []Event `json:"missing,omitempty"`    // reference emitted, candidate did not
	Unexpected []Event `json:"unexpected,omitempty"` // candidate emitted, reference did not
	Detail     string  `json:"detail"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s diverges at offset %d: missing=%v unexpected=%v (%s)",
		d.Cell, d.Offset, d.Missing, d.Unexpected, d.Detail)
}

// diffStreams compares two canonical event streams and, when they differ,
// localizes the first diverging offset and the per-offset multiset delta.
// ref is the reference cell's stream, got the cell's under test.
func diffStreams(cell string, ref, got []Event) *Divergence {
	i := 0
	for i < len(ref) && i < len(got) && ref[i] == got[i] {
		i++
	}
	if i == len(ref) && i == len(got) {
		return nil
	}
	// First disagreement is at the earlier of the two streams' offsets.
	at := int64(math.MaxInt64)
	if i < len(ref) {
		at = ref[i].Offset
	}
	if i < len(got) {
		at = min(at, got[i].Offset)
	}
	// Multiset delta restricted to the diverging offset: ref's count minus
	// got's, per code.
	delta := map[int32]int{}
	for _, e := range ref {
		if e.Offset == at {
			delta[e.Code]++
		}
	}
	for _, e := range got {
		if e.Offset == at {
			delta[e.Code]--
		}
	}
	d := &Divergence{Cell: cell, Offset: at, Detail: fmt.Sprintf(
		"reference emitted %d events, cell %d; first mismatch at stream index %d", len(ref), len(got), i)}
	for code, n := range delta {
		for ; n > 0; n-- {
			d.Missing = append(d.Missing, Event{Offset: at, Code: code})
		}
		for ; n < 0; n++ {
			d.Unexpected = append(d.Unexpected, Event{Offset: at, Code: code})
		}
	}
	canon(d.Missing)
	canon(d.Unexpected)
	return d
}

// GenConfig parameterizes the byte-level random-automaton generator. The
// zero value is normalized to a small, match-dense configuration.
type GenConfig struct {
	States     int     // STE count (default 12)
	Counters   int     // counter-element count (default 0 = counter-free)
	MeanFanOut float64 // average out-edges per state (default 1.5)
	Density    float64 // P(alphabet byte ∈ class) per state (default 0.35)
	StartFrac  float64 // P(state is an all-input start) (default 0.25)
	ReportFrac float64 // P(state reports) (default 0.25)
	Alphabet   []byte  // class/input symbol pool (default 'a'..'h')
}

func (c GenConfig) normalized() GenConfig {
	if c.States <= 0 {
		c.States = 12
	}
	if c.MeanFanOut <= 0 {
		c.MeanFanOut = 1.5
	}
	if c.Density <= 0 {
		c.Density = 0.35
	}
	if c.StartFrac <= 0 {
		c.StartFrac = 0.25
	}
	if c.ReportFrac <= 0 {
		c.ReportFrac = 0.25
	}
	if len(c.Alphabet) == 0 {
		c.Alphabet = []byte("abcdefgh")
	}
	return c
}

// Generate builds a random homogeneous automaton from rng. The small
// default alphabet keeps the match rate high enough that report-stream
// comparison actually exercises the emit paths (uniform byte classes over
// all 256 values almost never overlap a random input). Every reporting
// state gets a unique code, which is what makes exact-multiset comparison
// against prefix-merged automata sound: two reporting states never share a
// merge signature.
func Generate(rng *randx.Rand, cfg GenConfig) *automata.Automaton {
	cfg = cfg.normalized()
	b := automata.NewBuilder()

	var stes []automata.StateID
	for i := 0; i < cfg.States; i++ {
		var cs charset.Set
		for _, sym := range cfg.Alphabet {
			if rng.Float64() < cfg.Density {
				cs.Add(sym)
			}
		}
		if cs.IsEmpty() {
			cs.Add(randx.Pick(rng, cfg.Alphabet))
		}
		start := automata.StartNone
		switch r := rng.Float64(); {
		case r < cfg.StartFrac:
			start = automata.StartAllInput
		case r < cfg.StartFrac+0.08:
			start = automata.StartOfData
		}
		stes = append(stes, b.AddSTE(cs, start))
	}
	var counters []automata.StateID
	for i := 0; i < cfg.Counters; i++ {
		mode := automata.CountRollover
		if rng.Intn(2) == 1 {
			mode = automata.CountLatch
		}
		counters = append(counters, b.AddCounter(uint32(rng.IntRange(1, 4)), mode))
	}
	all := append(append([]automata.StateID(nil), stes...), counters...)

	// Edges: each state draws ~MeanFanOut successors uniformly over all
	// elements, so counter-bearing configs naturally produce STE→counter
	// pulses and counter→counter chains (the shape that flushed out the
	// fireCounters determinism bug). Counters additionally get a guaranteed
	// STE pulse source so they aren't dead weight.
	maxFan := int(2*cfg.MeanFanOut) + 1
	for _, from := range all {
		for n := rng.Intn(maxFan + 1); n > 0; n-- {
			b.AddEdge(from, randx.Pick(rng, all))
		}
	}
	for _, c := range counters {
		b.AddEdge(randx.Pick(rng, stes), c)
	}

	// Reports: unique code per reporting state (code = id+1, so 0 is never
	// a valid code). Guarantee at least one start and one reporter so the
	// automaton can do something observable.
	reported := false
	for _, id := range all {
		if rng.Float64() < cfg.ReportFrac {
			b.SetReport(id, int32(id)+1)
			reported = true
		}
	}
	if !reported {
		id := randx.Pick(rng, all)
		b.SetReport(id, int32(id)+1)
	}
	hasStart := false
	for _, id := range stes {
		if b.Start(id) != automata.StartNone {
			hasStart = true
			break
		}
	}
	if !hasStart {
		b.SetStart(randx.Pick(rng, stes), automata.StartAllInput)
	}
	return b.MustBuild()
}

// GenInput draws n symbols, mostly from the generator alphabet (so classes
// actually match) with a sprinkle of arbitrary bytes to exercise the
// no-match paths.
func GenInput(rng *randx.Rand, cfg GenConfig, n int) []byte {
	return draw(rng, cfg.normalized().Alphabet, 0.9, n)
}

// draw returns n bytes, each from alphabet with probability p and
// arbitrary otherwise.
func draw(rng *randx.Rand, alphabet []byte, p float64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if rng.Float64() < p {
			out[i] = randx.Pick(rng, alphabet)
		} else {
			out[i] = rng.Byte()
		}
	}
	return out
}

// GenerateBit builds a random byte-aligned bit automaton: each pattern is a
// chain of whole-byte elements (masked byte matchers and width-w uint-range
// fields funneled back to byte alignment with wildcard bits), reporting at
// its byte-aligned tail with a unique code. It also returns one concrete
// witness byte-string per pattern — an input guaranteed to match — so input
// generation can embed real matches; purely random input almost never hits
// a multi-byte masked pattern and would starve the oracle of reports. It
// draws 3 patterns of 1..3 bytes.
func GenerateBit(rng *randx.Rand) (*bitnfa.Automaton, [][]byte) {
	a := bitnfa.New()
	var witnesses [][]byte
	for p := 0; p < 3; p++ {
		nBytes := rng.IntRange(1, 3)
		witness := make([]byte, 0, nBytes)
		// First element is always a masked byte: AppendByte is the only
		// constructor that plants the start state.
		value := rng.Byte()
		mask := rng.Byte() | rng.Byte() // ~75% care bits
		tail := a.AppendByte(bitnfa.NoTail, value, mask, true)
		witness = append(witness, value)
		for i := 1; i < nBytes; i++ {
			if rng.Intn(3) == 0 {
				// Range field: w significant bits then 8-w wildcards.
				w := uint(rng.IntRange(1, 7))
				max := uint64(1)<<w - 1
				lo := uint64(rng.Intn(int(max) + 1))
				hi := lo + uint64(rng.Intn(int(max-lo)+1))
				tails, err := a.AppendUintRange(tail, w, lo, hi)
				if err == nil {
					tail, err = a.AppendAnyBits(tails, 8-w)
				}
				if err != nil {
					panic(err) // unreachable: width is in [1,7]
				}
				witness = append(witness, byte(lo<<(8-w)))
			} else {
				value = rng.Byte()
				mask = rng.Byte() | rng.Byte()
				tail = a.AppendByte(tail, value, mask, false)
				witness = append(witness, value)
			}
		}
		a.SetReport(tail, int32(p)+1)
		witnesses = append(witnesses, witness)
	}
	return a, witnesses
}

// GenBitInput builds an input of random bytes with each witness spliced in
// a few times at random offsets, so the bit oracle sees real matches.
func GenBitInput(rng *randx.Rand, witnesses [][]byte, n int) []byte {
	return splice(rng, rng.Bytes(n), witnesses)
}

// splice copies each witness that fits into out three times, at random
// offsets.
func splice(rng *randx.Rand, out []byte, witnesses [][]byte) []byte {
	for _, w := range witnesses {
		if len(w) > len(out) {
			continue
		}
		for k := 0; k < 3; k++ {
			copy(out[rng.Intn(len(out)-len(w)+1):], w)
		}
	}
	return out
}

// anchorAlphabet is the tiny symbol pool of the anchorable generator: four
// symbols keep literal chains short-period, so anchors self-overlap in the
// input and the prefilter's overlapping-hit handling is actually on trial.
var anchorAlphabet = []byte("abcd")

// GenAnchorable builds a random automaton biased toward what the literal
// prefilter can anchor: single-symbol chains hanging off one all-input
// start, optionally continued by multi-symbol class tails. The generic
// Generate almost never produces such shapes (its states draw dense random
// classes), so without this generator the prefilter cells would soak
// only the residual pass-through. A sprinkling of the prefilter's
// documented fallbacks — chains shorter than its minimum anchor length,
// start-of-data heads, second start states converging mid-chain — keeps
// the anchored/residual split itself random. Returns one witness string
// per component so input generation can splice in guaranteed matches.
func GenAnchorable(rng *randx.Rand) (*automata.Automaton, [][]byte) {
	b := automata.NewBuilder()
	nComp := 2 + rng.Intn(4)
	var witnesses [][]byte
	code := int32(1)
	for c := 0; c < nComp; c++ {
		n := rng.IntRange(1, 6) // 1..2 fall under the anchor minimum
		start := automata.StartAllInput
		if rng.Intn(8) == 0 {
			start = automata.StartOfData
		}
		first := randx.Pick(rng, anchorAlphabet)
		head := b.AddSTE(charset.Single(first), start)
		prev := head
		witness := []byte{first}
		for i := 1; i < n; i++ {
			sym := randx.Pick(rng, anchorAlphabet)
			s := b.AddSTE(charset.Single(sym), automata.StartNone)
			b.AddEdge(prev, s)
			prev = s
			witness = append(witness, sym)
		}
		for t := rng.Intn(3); t > 0; t-- {
			var cs charset.Set
			for _, sym := range anchorAlphabet {
				if rng.Float64() < 0.5 {
					cs.Add(sym)
				}
			}
			wsym := randx.Pick(rng, anchorAlphabet)
			cs.Add(wsym)
			s := b.AddSTE(cs, automata.StartNone)
			b.AddEdge(prev, s)
			if rng.Intn(2) == 0 {
				b.SetReport(s, code)
				code++
			}
			prev = s
			witness = append(witness, wsym)
		}
		b.SetReport(prev, code)
		code++
		if rng.Intn(6) == 0 {
			// A second start head converging into the component makes it
			// multi-start — the prefilter must route it to the residual.
			h2 := b.AddSTE(charset.Single(randx.Pick(rng, anchorAlphabet)), automata.StartAllInput)
			b.AddEdge(h2, prev)
		}
		witnesses = append(witnesses, witness)
	}
	return b.MustBuild(), witnesses
}

// GenAnchorableInput draws mostly-alphabet input and splices each witness
// in a few times, so anchor hits (and their residual confirmations) occur
// at realistic density instead of never.
func GenAnchorableInput(rng *randx.Rand, witnesses [][]byte, n int) []byte {
	return splice(rng, draw(rng, anchorAlphabet, 0.85, n), witnesses)
}
