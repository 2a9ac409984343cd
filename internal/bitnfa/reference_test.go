package bitnfa

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

// referenceStride8 is the map-based Stride8 this package shipped before
// the trie walk: per (anchor, byte) an 8-bit simulation over hash sets,
// edges in a map keyed by (from, to) anchor pair. It is kept verbatim as
// the oracle the current Stride8 is held to, state by state
// (TestStride8MatchesReference, FuzzStride8MatchesReference).
func referenceStride8(a *Automaton) (*automata.Automaton, error) {
	type futures struct {
		next   [256][]StateID // anchors active on last bit, per byte
		report [256]bool
	}
	// simulate8 runs 8 bits of byte b from the given initially-enabled set
	// and reports which states are active on the last bit, plus whether a
	// reporting state activated anywhere in the byte (and at which bit).
	simulate8 := func(initial []StateID, b byte) (active []StateID, reported bool, midByteReport bool) {
		enabled := map[StateID]bool{}
		for _, s := range initial {
			enabled[s] = true
		}
		for bit := 7; bit >= 0; bit-- {
			v := b >> bit & 1
			act := []StateID{}
			next := map[StateID]bool{}
			for s := range enabled {
				if !a.class[s].matches(v) {
					continue
				}
				act = append(act, s)
				if a.report[s] {
					reported = true
					if bit != 0 {
						midByteReport = true
					}
				}
				for _, t := range a.succ[s] {
					next[t] = true
				}
			}
			enabled = next
			if bit == 0 {
				sort.Slice(act, func(i, j int) bool { return act[i] < act[j] })
				active = act
			}
		}
		return active, reported, midByteReport
	}

	var startStates []StateID
	for s := range a.start {
		if a.start[s] {
			startStates = append(startStates, StateID(s))
		}
	}

	// Discover anchors via worklist; node "start" is virtual.
	anchorIdx := map[StateID]int{}
	var anchors []StateID
	addAnchor := func(s StateID) int {
		if i, ok := anchorIdx[s]; ok {
			return i
		}
		i := len(anchors)
		anchorIdx[s] = i
		anchors = append(anchors, s)
		return i
	}

	// Edge-labelled byte NFA. node -1 is the virtual start.
	type labelled struct {
		bytes charset.Set
	}
	edges := map[[2]int]*labelled{} // (fromAnchorIdx or -1, toAnchorIdx)
	reportsOn := map[int]charset.Set{}
	reportCode := map[int]int32{}

	// Anchor report codes: an anchor that is a reporting bit-state reports
	// when it activates (on the last bit). simulate8's 'reported' covers
	// reports by *interior* states too; byte alignment means interior
	// reports are exactly the anchor reports, which we verify.
	addEdge := func(from int, s StateID, b byte) {
		to := addAnchor(s)
		key := [2]int{from, to}
		l := edges[key]
		if l == nil {
			l = &labelled{}
			edges[key] = l
		}
		l.bytes.Add(b)
		if a.report[s] {
			cs := reportsOn[to]
			cs.Add(b)
			reportsOn[to] = cs
			reportCode[to] = a.code[s]
		}
	}

	processed := map[int]bool{}
	var work []int
	// Seed from the virtual start.
	for b := 0; b < 256; b++ {
		act, _, mid := simulate8(startStates, byte(b))
		if mid {
			return nil, fmt.Errorf("bitnfa: pattern reports mid-byte (not byte-aligned)")
		}
		for _, s := range act {
			addEdge(-1, s, byte(b))
		}
	}
	for i := range anchors {
		if !processed[i] {
			processed[i] = true
			work = append(work, i)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		u := anchors[i]
		for b := 0; b < 256; b++ {
			// u was active on the last bit of the previous byte, so its
			// successors are enabled on the first bit of this one. Starts
			// re-join every byte but are covered by the virtual start node.
			act, _, mid := simulate8(a.succ[u], byte(b))
			if mid {
				return nil, fmt.Errorf("bitnfa: pattern reports mid-byte (not byte-aligned)")
			}
			before := len(anchors)
			for _, s := range act {
				addEdge(i, s, byte(b))
			}
			for j := before; j < len(anchors); j++ {
				if !processed[j] {
					processed[j] = true
					work = append(work, j)
				}
			}
		}
	}

	// Homogenize: split each anchor per distinct incoming byte-set.
	b2 := automata.NewBuilder()
	type split struct {
		bytes charset.Set
		id    automata.StateID
	}
	splits := make([][]split, len(anchors))
	getSplit := func(to int, bytes charset.Set) automata.StateID {
		for _, sp := range splits[to] {
			if sp.bytes == bytes {
				return sp.id
			}
		}
		id := b2.AddSTE(bytes, automata.StartNone)
		if rep, ok := reportsOn[to]; ok && !rep.Intersect(bytes).IsEmpty() {
			// The copy reports only if its label overlaps the reporting
			// byte-set; exact when labels don't mix reporting and
			// non-reporting bytes, which holds because reporting is a
			// property of the destination anchor activating — and this
			// copy activates exactly on its label bytes.
			b2.SetReport(id, reportCode[to])
		}
		splits[to] = append(splits[to], split{bytes, id})
		return id
	}

	// Group edges by destination and label so each (to, bytes) pair becomes
	// one split copy.
	type edgeRec struct {
		from, to int
		bytes    charset.Set
	}
	var recs []edgeRec
	for k, l := range edges {
		recs = append(recs, edgeRec{k[0], k[1], l.bytes})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].to != recs[j].to {
			return recs[i].to < recs[j].to
		}
		return recs[i].from < recs[j].from
	})
	// First materialize all split copies (destinations).
	for _, r := range recs {
		getSplit(r.to, r.bytes)
	}
	// Start-labelled copies become all-input start states.
	for _, r := range recs {
		if r.from == -1 {
			id := getSplit(r.to, r.bytes)
			b2.SetStart(id, automata.StartAllInput)
		}
	}
	// Wire interior edges: from every copy of r.from to the copy of r.to
	// carrying r.bytes.
	for _, r := range recs {
		if r.from == -1 {
			continue
		}
		toID := getSplit(r.to, r.bytes)
		for _, sp := range splits[r.from] {
			b2.AddEdge(sp.id, toID)
		}
	}
	return b2.Build()
}

// CompareWithReference strides a with Stride8 and with referenceStride8
// and fails t unless both fail, or both succeed with the same automaton
// state for state: state count, charset and its interned handle, start
// type, report flag and code, and successor list in order.
func CompareWithReference(t testing.TB, a *Automaton) {
	t.Helper()
	got, gerr := a.Stride8()
	want, werr := referenceStride8(a)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Stride8 error %v, reference error %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if got.NumStates() != want.NumStates() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("Stride8 has %d states / %d edges, reference %d / %d",
			got.NumStates(), got.NumEdges(), want.NumStates(), want.NumEdges())
	}
	for i := 0; i < got.NumStates(); i++ {
		id := automata.StateID(i)
		switch {
		case got.Class(id) != want.Class(id) || got.ClassHandle(id) != want.ClassHandle(id):
			t.Fatalf("state %d: charset %v, reference %v", i, got.Class(id), want.Class(id))
		case got.Start(id) != want.Start(id):
			t.Fatalf("state %d: start %v, reference %v", i, got.Start(id), want.Start(id))
		case got.IsReport(id) != want.IsReport(id) || got.ReportCode(id) != want.ReportCode(id):
			t.Fatalf("state %d: report %v/%d, reference %v/%d", i,
				got.IsReport(id), got.ReportCode(id), want.IsReport(id), want.ReportCode(id))
		case !slices.Equal(got.Succ(id), want.Succ(id)):
			t.Fatalf("state %d: succ %v, reference %v", i, got.Succ(id), want.Succ(id))
		}
	}
}

// StrideFixtures returns the bit automata this package's tests build,
// the mid-byte chains included.
func StrideFixtures(t testing.TB) []*Automaton {
	t.Helper()
	out := []*Automaton{
		bytePattern([2]byte{0xAB, 0xFF}, [2]byte{0xCD, 0xFF}),
		bytePattern([2]byte{0x0A, 0x0F}),
		bytePattern([2]byte{0x50, 0xF0}, [2]byte{0x03, 0xFF}),
		bytePattern([2]byte{0x50, 0xFF}, [2]byte{0x4B, 0xFF}, [2]byte{0x03, 0xFF}),
	}
	for _, build := range []func() (*Automaton, error){
		func() (*Automaton, error) { return rangePattern(8, 3, 17) },
		func() (*Automaton, error) { return rangePattern(16, 300, 700) },
		dosTimePattern, compositePattern,
	} {
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	for k := 1; k <= 8; k++ {
		out = append(out, midBytePattern(k))
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 30; i++ {
		out = append(out, randomChain(rng))
	}
	return out
}

// RandomAutomaton draws a bit automaton. An aligned one is 1..4 start
// chains of masked bytes and width-1..16 range fields padded back to byte
// alignment with free bits, with aligned back and cross edges from byte
// tails to byte heads (loops, so anchors recur) and reports on byte
// tails. A raw one is an arbitrary graph of 2..24 states, which usually
// reports mid-byte.
func RandomAutomaton(rng *rand.Rand, aligned bool) *Automaton {
	a := New()
	if !aligned {
		n := 2 + rng.Intn(23)
		for i := 0; i < n; i++ {
			a.AddState(BitClass(1+rng.Intn(3)), i == 0 || rng.Intn(5) == 0)
		}
		for i := 0; i < n; i++ {
			for d := rng.Intn(4); d > 0; d-- {
				a.AddEdge(StateID(i), StateID(rng.Intn(n)))
			}
			if rng.Intn(6) == 0 {
				a.SetReport(StateID(i), int32(rng.Intn(4)))
			}
		}
		return a
	}
	var heads, tails []StateID
	for p := 1 + rng.Intn(4); p > 0; p-- {
		heads = append(heads, StateID(a.NumStates()))
		tail := a.AppendByte(NoTail, byte(rng.Intn(256)), byte(rng.Intn(256)), true)
		for e := rng.Intn(4); e > 0; e-- {
			if rng.Intn(3) > 0 {
				heads = append(heads, StateID(a.NumStates()))
				tail = a.AppendByte(tail, byte(rng.Intn(256)), byte(rng.Intn(256)), false)
				continue
			}
			w := uint(1 + rng.Intn(16))
			lo := uint64(rng.Intn(1 << w))
			hi := lo + uint64(rng.Intn(1<<w-int(lo)))
			ends, err := a.AppendUintRange(tail, w, lo, hi)
			if err == nil {
				tail, err = a.AppendAnyBits(ends, uint(8-w%8))
			}
			if err != nil {
				panic(err)
			}
		}
		tails = append(tails, tail)
		a.SetReport(tail, int32(rng.Intn(4)))
	}
	for e := rng.Intn(4); e > 0; e-- {
		a.AddEdge(tails[rng.Intn(len(tails))], heads[rng.Intn(len(heads))])
	}
	return a
}

// FuzzStride8MatchesReference holds Stride8 to the reference on random
// aligned and raw bit automata.
func FuzzStride8MatchesReference(f *testing.F) {
	f.Add(int64(1), true)
	f.Add(int64(2), false)
	f.Add(int64(99), true)
	f.Fuzz(func(t *testing.T, seed int64, aligned bool) {
		CompareWithReference(t, RandomAutomaton(rand.New(rand.NewSource(seed)), aligned))
	})
}
