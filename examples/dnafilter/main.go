// Dnafilter: approximate DNA pattern search with the mesh automata of
// Section X — build Hamming and Levenshtein filters for a set of guide
// patterns, plant near-miss occurrences in a random genome, and show which
// scoring kernel finds what.
package main

import (
	"fmt"
	"log"

	"automatazoo/internal/automata"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

func main() {
	const (
		nPatterns = 8
		l         = 19
		d         = 3
		genomeLen = 500_000
	)
	rng := randx.New(0xd0a)
	patterns := make([][]byte, nPatterns)
	for i := range patterns {
		patterns[i] = mesh.RandomDNA(rng, l)
	}

	build := func(kernel mesh.Kernel) *sim.Engine {
		b := automata.NewBuilder()
		for i, p := range patterns {
			if err := kernel.Build(b, p, d, int32(i)); err != nil {
				log.Fatal(err)
			}
		}
		a, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s filters: %6d states, %7d edges (%.2f edges/node)\n",
			kernel, a.NumStates(), a.NumEdges(),
			float64(a.NumEdges())/float64(a.NumStates()))
		return sim.New(a)
	}
	ham := build(mesh.Hamming)
	lev := build(mesh.Levenshtein)

	// Genome with planted variants: two substitutions of pattern 0 (both
	// kernels should find it) and one deletion in pattern 1 (only the
	// Levenshtein filter can).
	genome := mesh.RandomDNA(rng, genomeLen)
	sub := append([]byte(nil), patterns[0]...)
	sub[3] = flip(sub[3])
	sub[11] = flip(sub[11])
	copy(genome[1000:], sub)
	del := append([]byte(nil), patterns[1][:7]...)
	del = append(del, patterns[1][8:]...) // drop one base
	copy(genome[2000:], del)

	report := func(name string, e *sim.Engine) {
		found := make([][]int64, nPatterns) // indexed by report code
		e.OnReport = func(r sim.Report) {
			if offs := found[r.Code]; len(offs) == 0 || offs[len(offs)-1] != r.Offset {
				found[r.Code] = append(offs, r.Offset)
			}
		}
		e.Run(genome)
		fmt.Printf("\n%s matches:\n", name)
		none := true
		for code, offs := range found {
			if len(offs) > 0 {
				fmt.Printf("  pattern %d at offsets %v\n", code, offs)
				none = false
			}
		}
		if none {
			fmt.Println("  none")
		}
	}
	report("Hamming", ham)
	report("Levenshtein", lev)
}

func flip(c byte) byte {
	if c == 'a' {
		return 't'
	}
	return 'a'
}
