// Package prng implements the AP PRNG benchmark (Wadden et al., ICCD
// 2016): automata that model Markov chains whose transitions are driven by
// uniformly random input bytes, turning many small parallel automata into
// a high-throughput pseudo-random bit generator.
//
// A k-sided chain is a ring of k stages; each stage is a branch state
// (matching any byte) fanning out to k "side" states, one per equal
// partition of the byte alphabet — the die roll — which converge into the
// next stage's branch. That is k branch states and k² side states with
// k² + k² edges… laid out per the paper's Table I geometry: the 4-sided
// variant has 20 states and 32 edges per chain (4 branches + 16 sides),
// the 8-sided 72 states and 128 edges (8 branches + 64 sides). Each side
// state reports its side index; the report stream is the entropy source.
package prng

import (
	"fmt"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"sort"

	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

// BuildChain appends one k-sided Markov-chain ring to b. Side reports
// carry code = chainCode*k + side. Every stage assigns byte partitions to
// side indices through its own random permutation (drawn from rng), so
// distinct chains driven by the same input byte roll different values —
// the chain-structure randomization of the original AP PRNG design. A nil
// rng uses the identity assignment.
func BuildChain(b *automata.Builder, k int, chainCode int32, rng *randx.Rand) error {
	if k < 2 || 256%k != 0 {
		return fmt.Errorf("prng: sides must divide 256, got %d", k)
	}
	part := make([]charset.Set, k)
	width := 256 / k
	for s := 0; s < k; s++ {
		part[s] = charset.Range(byte(s*width), byte(s*width+width-1))
	}
	branches := make([]automata.StateID, k)
	for i := range branches {
		st := automata.StartNone
		if i == 0 {
			st = automata.StartOfData
		}
		branches[i] = b.AddSTE(charset.All(), st)
	}
	for i := 0; i < k; i++ {
		perm := make([]int, k)
		for s := range perm {
			perm[s] = s
		}
		if rng != nil {
			randx.Shuffle(rng, perm)
		}
		for s := 0; s < k; s++ {
			side := b.AddSTE(part[perm[s]], automata.StartNone)
			b.SetReport(side, chainCode*int32(k)+int32(s))
			b.AddEdge(branches[i], side)
			// Random walk over stages: each side picks its own successor
			// stage, so chains' stage sequences diverge.
			next := branches[(i+1)%k]
			if rng != nil {
				next = branches[rng.Intn(k)]
			}
			b.AddEdge(side, next)
		}
	}
	return nil
}

// Benchmark builds n parallel k-sided chains (the paper: 1,000 chains,
// 4- and 8-sided variants) with seeded per-chain structure randomization.
func Benchmark(n, k int, seed uint64) (*automata.Automaton, error) {
	rng := randx.New(seed)
	b := automata.NewBuilder()
	for i := 0; i < n; i++ {
		if err := BuildChain(b, k, int32(i), rng); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// Generator extracts pseudo-random bits from a chain automaton driven by
// random bytes. Bits are kept per chain: one chain's roll sequence is an
// iid uniform stream (for a fixed stage the side map is a bijection of the
// uniform byte partition, and the stage walk is independent of the current
// roll), whereas bits of *different* chains at the same offset are driven
// by the same input byte and must not be interleaved into one word.
type Generator struct {
	engine   *sim.Engine
	k        int
	bitsPer  int
	perChain map[int32][]byte
}

// NewGenerator wraps a Benchmark automaton with k sides.
func NewGenerator(a *automata.Automaton, k int) *Generator {
	g := &Generator{engine: sim.New(a), k: k, perChain: map[int32][]byte{}}
	for v := k; v > 1; v >>= 1 {
		g.bitsPer++
	}
	g.engine.OnReport = func(r sim.Report) {
		chain := r.Code / int32(g.k)
		side := int(r.Code) % g.k
		bits := g.perChain[chain]
		for i := g.bitsPer - 1; i >= 0; i-- {
			bits = append(bits, byte(side>>i&1))
		}
		g.perChain[chain] = bits
	}
	return g
}

// Drive feeds entropy-source bytes and returns all bits extracted so far
// (per-chain streams concatenated). Every second symbol produces one die
// roll per chain (branch and side states alternate).
func (g *Generator) Drive(input []byte) []byte {
	g.engine.Run(input)
	return g.Bits()
}

// Bits returns the per-chain bit streams concatenated in chain order.
func (g *Generator) Bits() []byte {
	chains := make([]int32, 0, len(g.perChain))
	for c := range g.perChain {
		chains = append(chains, c)
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i] < chains[j] })
	var out []byte
	for _, c := range chains {
		out = append(out, g.perChain[c]...)
	}
	return out
}

// Bytes packs the extracted bits into bytes (discarding any partial tail).
func (g *Generator) Bytes() []byte {
	bits := g.Bits()
	out := make([]byte, len(bits)/8)
	for i := range out {
		var v byte
		for j := 0; j < 8; j++ {
			v = v<<1 | bits[i*8+j]
		}
		out[i] = v
	}
	return out
}

// Quality metrics for the generated bit stream.
type Quality struct {
	Bits      int
	OnesFrac  float64 // monobit: fraction of ones (ideal 0.5)
	MaxRun    int     // longest run of equal bits
	ChiSquare float64 // byte-level chi-square against uniform
}

// Assess computes simple randomness diagnostics over the extracted bits.
func Assess(bits []byte) Quality {
	q := Quality{Bits: len(bits)}
	if len(bits) == 0 {
		return q
	}
	ones, run, maxRun := 0, 1, 1
	for i, b := range bits {
		if b == 1 {
			ones++
		}
		if i > 0 {
			if bits[i] == bits[i-1] {
				run++
				if run > maxRun {
					maxRun = run
				}
			} else {
				run = 1
			}
		}
	}
	q.OnesFrac = float64(ones) / float64(len(bits))
	q.MaxRun = maxRun
	// Chi-square over packed bytes.
	var hist [256]int
	n := len(bits) / 8
	for i := 0; i < n; i++ {
		var v byte
		for j := 0; j < 8; j++ {
			v = v<<1 | bits[i*8+j]
		}
		hist[v]++
	}
	if n > 0 {
		expected := float64(n) / 256
		for _, c := range hist {
			d := float64(c) - expected
			q.ChiSquare += d * d / expected
		}
	}
	return q
}
