// Quickstart: compile a handful of regex patterns into one homogeneous
// automaton, scan a byte stream with both execution engines, and print the
// matches — the five-minute tour of the toolkit the suite is built on.
package main

import (
	"fmt"
	"log"

	"automatazoo/internal/automata"
	"automatazoo/internal/dfa"
	"automatazoo/internal/regex"
	"automatazoo/internal/sim"
)

func main() {
	patterns := []string{
		`cat`,
		`do+g`,
		`[0-9]{3}-[0-9]{4}`,
		`^begin`,
	}
	b := automata.NewBuilder()
	for i, p := range patterns {
		parsed, err := regex.Parse(p, 0)
		if err != nil {
			log.Fatalf("parse %q: %v", p, err)
		}
		if _, err := regex.CompileInto(b, parsed, int32(i)); err != nil {
			log.Fatalf("compile %q: %v", p, err)
		}
	}
	a, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d patterns into %d states / %d edges\n",
		len(patterns), a.NumStates(), a.NumEdges())

	input := []byte("begin: the cat saw a doooog near 555-1234, another cat fled")

	// VASim-style NFA interpretation: cycle-accurate, reports offsets.
	e := sim.New(a)
	var reports []sim.Report
	e.OnReport = func(r sim.Report) { reports = append(reports, r) }
	st := e.Run(input)
	fmt.Printf("\nNFA engine: %d symbols, active set %.2f, %d reports\n",
		st.Symbols, st.ActiveAvg(), st.Reports)
	for _, r := range reports {
		fmt.Printf("  pattern %q matched ending at offset %d\n",
			patterns[r.Code], r.Offset)
	}

	// Hyperscan-style lazy DFA: same reports, different execution model.
	d, err := dfa.New(a)
	if err != nil {
		log.Fatal(err)
	}
	ds := d.Run(input)
	fmt.Printf("\nDFA engine: %d interned DFA states, %d reports (identical match set)\n",
		ds.DFAStates, ds.Reports)
}
