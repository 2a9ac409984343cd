// Package crispr implements the CRISPR/Cas9 off-target-site search
// benchmarks (Bo et al., HPCA 2018). A guide RNA is a 20-base-pair spacer
// followed by the PAM site "NGG"; off-target search finds genome locations
// similar to the guide, because Cas9 can cut there too.
//
// The paper ships two filter styles mirroring the two algorithms Bo
// compared against:
//
//   - CasOFFinder-style (OFF): a fast candidate filter — exact match on the
//     12-bp seed region (PAM-proximal bases bind first and tolerate no
//     mismatch in the prefilter), then a small mismatch budget over the
//     8-bp tail, then the PAM chain.
//   - CasOT-style (OT): a thorough filter with independent mismatch budgets
//     in the seed and tail regions, yielding a much larger mesh.
//
// Each benchmark instantiates 2,000 filters ("a problem size that is
// larger than most existing explorations, and the largest evaluated in
// Bo's work").
package crispr

import (
	"fmt"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
)

// Style selects the filter construction.
type Style int

const (
	// CasOFFinder is the exact-seed candidate filter.
	CasOFFinder Style = iota
	// CasOT is the dual-budget thorough filter.
	CasOT
)

func (s Style) String() string {
	if s == CasOFFinder {
		return "CasOFFinder"
	}
	return "CasOT"
}

// Guide is one CRISPR guide: a 20-bp spacer. The PAM is always NGG.
type Guide struct {
	Spacer []byte // length 20, over {a,t,g,c}
}

// SpacerLen is the standard Cas9 spacer length.
const SpacerLen = 20

// SeedLen is the PAM-proximal seed region length used by both filters.
const SeedLen = 12

// RandomGuide draws a random spacer.
func RandomGuide(rng *randx.Rand) Guide {
	return Guide{Spacer: mesh.RandomDNA(rng, SpacerLen)}
}

// pamClasses is the NGG site: any base, then g, then g.
func pamClasses() []charset.Set {
	n := charset.FromString("atgc")
	g := charset.Single('g')
	return []charset.Set{n, g, g}
}

// BuildFilter appends one guide filter of the given style to b, reporting
// with code. Genomic layout is spacer (tail..seed) then PAM: the automaton
// consumes tail bases first, seed bases next, and the PAM last, matching
// the 5'→3' protospacer orientation.
func BuildFilter(b *automata.Builder, g Guide, style Style, code int32) error {
	if len(g.Spacer) != SpacerLen {
		return fmt.Errorf("crispr: spacer must be %d bp, got %d", SpacerLen, len(g.Spacer))
	}
	tail := g.Spacer[:SpacerLen-SeedLen] // PAM-distal 8 bp
	seed := g.Spacer[SpacerLen-SeedLen:] // PAM-proximal 12 bp
	var (
		exits []automata.StateID
		err   error
	)
	switch style {
	case CasOFFinder:
		// Mismatch budget 1 in the tail, exact seed, PAM.
		exits, err = mesh.BuildHammingSegment(b, tail, 1, nil)
		if err != nil {
			return err
		}
		exits, err = exactSegment(b, seed, exits)
		if err != nil {
			return err
		}
	case CasOT:
		// Budget 2 in the tail and 2 in the seed, independently.
		exits, err = mesh.BuildHammingSegment(b, tail, 2, nil)
		if err != nil {
			return err
		}
		exits, err = mesh.BuildHammingSegment(b, seed, 2, exits)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("crispr: unknown style %d", style)
	}
	exits, err = mesh.BuildClassChain(b, pamClasses(), exits)
	if err != nil {
		return err
	}
	for _, id := range exits {
		b.SetReport(id, code)
	}
	return nil
}

// exactSegment appends an exact-match chain for pattern after entries.
func exactSegment(b *automata.Builder, pattern []byte, entries []automata.StateID) ([]automata.StateID, error) {
	classes := make([]charset.Set, len(pattern))
	for i, c := range pattern {
		classes[i] = charset.Single(c)
	}
	return mesh.BuildClassChain(b, classes, entries)
}

// Input synthesizes a genome fragment of n bases with sites planted for
// the given guides: for each guide, one exact protospacer+PAM occurrence
// and one single-mismatch occurrence, surrounded by random sequence.
func Input(guides []Guide, n int, seed uint64) []byte {
	rng := randx.New(seed ^ 0xc215b)
	out := mesh.RandomDNA(rng, n)
	site := func(g Guide, mismatches int) []byte {
		s := append([]byte(nil), g.Spacer...)
		for m := 0; m < mismatches; m++ {
			p := rng.Intn(len(s))
			s[p] = mesh.DNA[rng.Intn(4)]
		}
		s = append(s, mesh.DNA[rng.Intn(4)], 'g', 'g') // NGG
		return s
	}
	for _, g := range guides {
		for _, mm := range []int{0, 1} {
			frag := site(g, mm)
			if len(frag) >= n {
				break
			}
			pos := rng.Intn(n - len(frag))
			copy(out[pos:], frag)
		}
	}
	return out
}
