// Package bitnfa implements bit-level homogeneous automata and the
// 8-striding transformation that converts them to byte-level automata
// (Section IX of the paper). Bit-level automata are the natural medium for
// sub-byte patterns — file-format bit-fields (e.g. the MS-DOS timestamp in
// a PKZip header) and nibble-level malware signatures — and 8-striding
// makes them executable by ordinary byte-oriented engines.
//
// A bit state matches input bit 0, bit 1, or either. Patterns must be
// byte-aligned: every path from a start state to a reporting state must
// have a length that is a multiple of 8 bits, so that reports coincide
// with byte boundaries (Stride8 verifies this dynamically and fails
// otherwise).
package bitnfa

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

// BitClass says which bit values a state matches.
type BitClass uint8

const (
	// MatchZero matches the 0 bit.
	MatchZero BitClass = 1 << iota
	// MatchOne matches the 1 bit.
	MatchOne
	// MatchAny matches either bit.
	MatchAny = MatchZero | MatchOne
)

func (c BitClass) matches(bit byte) bool {
	if bit == 0 {
		return c&MatchZero != 0
	}
	return c&MatchOne != 0
}

// StateID names a bit-automaton state.
type StateID = uint32

// Automaton is a mutable bit-level automaton. Start states are enabled at
// every byte boundary (bit offsets ≡ 0 mod 8): bit-level patterns in this
// suite describe byte-aligned file structures.
type Automaton struct {
	class  []BitClass
	start  []bool
	report []bool
	code   []int32
	succ   [][]StateID
}

// New returns an empty bit automaton.
func New() *Automaton { return &Automaton{} }

// NumStates returns the number of states.
func (a *Automaton) NumStates() int { return len(a.class) }

// AddState adds a state with the given bit class; start marks it enabled at
// every byte boundary.
func (a *Automaton) AddState(c BitClass, start bool) StateID {
	id := StateID(len(a.class))
	a.class = append(a.class, c)
	a.start = append(a.start, start)
	a.report = append(a.report, false)
	a.code = append(a.code, 0)
	a.succ = append(a.succ, nil)
	return id
}

// AddEdge links from → to.
func (a *Automaton) AddEdge(from, to StateID) {
	a.succ[from] = append(a.succ[from], to)
}

// SetReport marks id as reporting with code.
func (a *Automaton) SetReport(id StateID, code int32) {
	a.report[id] = true
	a.code[id] = code
}

// AppendByte appends an 8-state chain matching the bits of value (MSB
// first) where the corresponding careMask bit is 1, and either bit where it
// is 0. prev is the chain's predecessor (NoTail for a fresh start chain);
// returns the chain's tail.
func (a *Automaton) AppendByte(prev StateID, value, careMask byte, startChain bool) StateID {
	cur := prev
	for i := 7; i >= 0; i-- {
		var c BitClass
		if careMask&(1<<i) == 0 {
			c = MatchAny
		} else if value&(1<<i) != 0 {
			c = MatchOne
		} else {
			c = MatchZero
		}
		id := a.AddState(c, startChain && cur == NoTail && i == 7)
		if cur != NoTail {
			a.AddEdge(cur, id)
		}
		cur = id
	}
	return cur
}

// NoTail marks "no predecessor" for AppendByte / AppendUintRange.
const NoTail = ^StateID(0)

// AppendUintRange appends a width-bit (MSB first) acceptor for integers in
// [lo, hi], attached after prev, and returns the tails (the states active
// after the last bit of any accepted value). This is the digit-DP automaton
// used to express bit-fields like "seconds in 0..29" exactly rather than as
// wildcards.
func (a *Automaton) AppendUintRange(prev StateID, width uint, lo, hi uint64) ([]StateID, error) {
	if width == 0 || width > 64 {
		return nil, fmt.Errorf("bitnfa: bad width %d", width)
	}
	if lo > hi {
		return nil, fmt.Errorf("bitnfa: empty range [%d,%d]", lo, hi)
	}
	if max := uint64(1)<<width - 1; hi > max {
		return nil, fmt.Errorf("bitnfa: hi %d exceeds %d-bit range", hi, width)
	}
	// memo key: (bitIndex, tightLo, tightHi, bitValue) → state.
	type key struct {
		i      uint
		tl, th bool
		b      byte
	}
	memo := map[key]StateID{}
	var tails []StateID
	// rec extends from pred having consumed bits [0,i) with tightness
	// (tl, th).
	var rec func(pred StateID, i uint, tl, th bool)
	rec = func(pred StateID, i uint, tl, th bool) {
		if i == width {
			tails = append(tails, pred)
			return
		}
		shift := width - 1 - i
		loBit := byte(lo >> shift & 1)
		hiBit := byte(hi >> shift & 1)
		for _, b := range [2]byte{0, 1} {
			if tl && b < loBit {
				continue
			}
			if th && b > hiBit {
				continue
			}
			ntl := tl && b == loBit
			nth := th && b == hiBit
			k := key{i, tl, th, b}
			id, ok := memo[k]
			if !ok {
				c := MatchZero
				if b == 1 {
					c = MatchOne
				}
				id = a.AddState(c, false)
				memo[k] = id
				rec(id, i+1, ntl, nth)
			}
			if pred != NoTail {
				a.AddEdge(pred, id)
			} else {
				a.start[id] = true
			}
		}
	}
	rec(prev, 0, true, true)
	// Deduplicate tails (distinct tightness paths can share memo states).
	sort.Slice(tails, func(i, j int) bool { return tails[i] < tails[j] })
	uniq := tails[:0]
	for i, t := range tails {
		if i == 0 || t != tails[i-1] {
			uniq = append(uniq, t)
		}
	}
	return uniq, nil
}

// AppendAnyBits appends a chain of k wildcard bits fed by every state in
// prevs, returning the chain's single tail. Because a free field accepts
// everything, fan-in from multiple predecessor tails can join here without
// changing the language — the idiom that keeps composed bit-field
// automata from multiplying out their tail sets.
func (a *Automaton) AppendAnyBits(prevs []StateID, k uint) (StateID, error) {
	if k == 0 {
		return 0, fmt.Errorf("bitnfa: zero-width free field")
	}
	var head, cur StateID
	for i := uint(0); i < k; i++ {
		id := a.AddState(MatchAny, false)
		if i == 0 {
			head = id
		} else {
			a.AddEdge(cur, id)
		}
		cur = id
	}
	for _, p := range prevs {
		a.AddEdge(p, head)
	}
	return cur, nil
}

// Simulate runs the bit automaton directly over a byte stream (consuming 8
// bits per byte, MSB first) and returns reporting (byteOffset, code) pairs.
// It is the reference semantics Stride8 is tested against.
func (a *Automaton) Simulate(input []byte) [][2]int64 {
	var out [][2]int64
	enabled := map[StateID]bool{}
	next := map[StateID]bool{}
	for off, b := range input {
		for bit := 7; bit >= 0; bit-- {
			v := b >> bit & 1
			if bit == 7 { // byte boundary: starts join the frontier
				for s := range a.start {
					if a.start[s] {
						enabled[StateID(s)] = true
					}
				}
			}
			clear(next)
			for s := range enabled {
				if !a.class[s].matches(v) {
					continue
				}
				if a.report[s] {
					if bit != 0 {
						// mid-byte report: tolerated in simulation,
						// attributed to the current byte
					}
					out = append(out, [2]int64{int64(off), int64(a.code[s])})
				}
				for _, t := range a.succ[s] {
					next[t] = true
				}
			}
			enabled, next = next, enabled
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Stride8 converts the bit automaton into a byte-level homogeneous
// automaton consuming one byte (8 bits, MSB first) per symbol. It fails if
// any report can fire mid-byte (the pattern is not byte-aligned).
//
// The construction has two phases. First it builds an edge-labelled byte
// NFA whose nodes are "anchor" bit-states (states active on the final bit
// of a byte): for each anchor u, one depth-first walk of the 8-level bit
// trie finds, for all 256 byte values at once, which anchors the 8-bit
// futures of u's successors activate next. Then the edge-labelled NFA is
// homogenized by splitting every node per distinct incoming byte-set,
// which is what gives strided automata their characteristic high fan-out
// (File Carving's 58.8 edges/node in Table I).
//
// Cost: one trie pass per anchor (plus one for the virtual start node),
// at most 510 frontier steps that share their prefixes and stop where a
// prefix has nothing enabled. Frontiers are deduplicated with generation
// marks over the bit states, so allocations grow with the number of
// anchors and output states, not with anchors × 256.
func (a *Automaton) Stride8() (*automata.Automaton, error) {
	n := len(a.class)
	walker := trie{a: a, mark: make([]uint32, n)}
	var startStates []StateID
	for s, st := range a.start {
		if st {
			startStates = append(startStates, StateID(s))
		}
	}

	// Edge-labelled byte NFA: one record per (from, to) anchor pair, from
	// -1 being the virtual start. Anchors are numbered in discovery order
	// and walked from a LIFO worklist; slot[s] is the record of the anchor
	// being walked (stamped from+2) whose destination is bit state s.
	type edgeRec struct {
		from, to int
		bytes    charset.Set
		id       automata.StateID // the destination's split copy
	}
	var recs []edgeRec
	anchorOf := make([]int32, n)
	for i := range anchorOf {
		anchorOf[i] = -1
	}
	stamp := make([]int32, n)
	slot := make([]int32, n)
	var anchors []StateID
	var work []int
	from := -1
	addEdges := func(b byte, act []StateID) {
		for _, s := range act {
			to := anchorOf[s]
			if to < 0 {
				to = int32(len(anchors))
				anchorOf[s] = to
				anchors = append(anchors, s)
				work = append(work, int(to))
			}
			if stamp[s] != int32(from+2) {
				stamp[s] = int32(from + 2)
				slot[s] = int32(len(recs))
				recs = append(recs, edgeRec{from: from, to: int(to)})
			}
			recs[slot[s]].bytes.Add(b)
		}
	}
	// u was active on the last bit of the previous byte, so its successors
	// are enabled on the first bit of this one. Starts re-join every byte
	// but are covered by the virtual start node.
	ok := walker.walk(startStates, addEdges)
	for ok && len(work) > 0 {
		from = work[len(work)-1]
		work = work[:len(work)-1]
		ok = walker.walk(a.succ[anchors[from]], addEdges)
	}
	if !ok {
		return nil, fmt.Errorf("bitnfa: pattern reports mid-byte (not byte-aligned)")
	}

	// Homogenize: one split copy per anchor and distinct incoming byte-set.
	// With the records ordered by destination, an anchor's copies get
	// consecutive IDs: [splitOff[to], splitOff[to+1]). A copy reports iff
	// its anchor is a reporting bit-state, since it activates exactly on
	// its label bytes.
	slices.SortFunc(recs, func(x, y edgeRec) int {
		if x.to != y.to {
			return cmp.Compare(x.to, y.to)
		}
		return cmp.Compare(x.from, y.from)
	})
	b2 := automata.NewBuilder()
	splitOff := make([]automata.StateID, len(anchors)+1)
	for g := 0; g < len(recs); {
		to := recs[g].to
		splitOff[to] = automata.StateID(b2.NumStates())
		h := g
	recs:
		for ; h < len(recs) && recs[h].to == to; h++ {
			for k := g; k < h; k++ {
				if recs[k].bytes == recs[h].bytes {
					recs[h].id = recs[k].id
					continue recs
				}
			}
			recs[h].id = b2.AddSTE(recs[h].bytes, automata.StartNone)
			if s := anchors[to]; a.report[s] {
				b2.SetReport(recs[h].id, a.code[s])
			}
		}
		g = h
	}
	splitOff[len(anchors)] = automata.StateID(b2.NumStates())
	// Start-labelled copies become all-input start states; every other
	// record wires every copy of its source to its destination copy.
	for _, r := range recs {
		if r.from == -1 {
			b2.SetStart(r.id, automata.StartAllInput)
		}
	}
	for _, r := range recs {
		if r.from == -1 {
			continue
		}
		for id := splitOff[r.from]; id < splitOff[r.from+1]; id++ {
			b2.AddEdge(id, r.id)
		}
	}
	return b2.Build()
}

// trie walks the 8-level bit trie of one byte's futures. level[d] holds
// the states enabled on bit 7-d under the prefix being walked; mark and
// gen deduplicate each level's frontier without a set allocation.
type trie struct {
	a     *Automaton
	mark  []uint32
	gen   uint32
	level [8][]StateID
	leaf  []StateID
}

// walk enables initial on the first bit of a byte and calls emit(b, act)
// for b = 0..255 in ascending order, act being the states active on b's
// last bit in ascending order, skipping bytes where act is empty. act is
// reused after emit returns. walk returns false if a reporting state is
// active on any earlier bit (a mid-byte report).
func (t *trie) walk(initial []StateID, emit func(b byte, act []StateID)) bool {
	t.bump()
	set := t.level[0][:0]
	for _, s := range initial {
		if t.mark[s] != t.gen {
			t.mark[s] = t.gen
			set = append(set, s)
		}
	}
	t.level[0] = set
	return len(set) == 0 || t.descend(0, 0, emit)
}

// descend walks both children of the prefix (its high d bits) whose
// enabled set is level[d]: bit 0 first, so leaves come in byte order.
func (t *trie) descend(d int, prefix int, emit func(b byte, act []StateID)) bool {
	set := t.level[d]
	for v := 0; v < 2; v++ {
		c := MatchZero << v
		if d == 7 {
			act := t.leaf[:0]
			for _, s := range set {
				if t.a.class[s]&c != 0 {
					act = append(act, s)
				}
			}
			t.leaf = act
			if len(act) > 0 {
				slices.Sort(act)
				emit(byte(prefix<<1|v), act)
			}
			continue
		}
		t.bump()
		next := t.level[d+1][:0]
		for _, s := range set {
			if t.a.class[s]&c == 0 {
				continue
			}
			if t.a.report[s] {
				return false
			}
			for _, u := range t.a.succ[s] {
				if t.mark[u] != t.gen {
					t.mark[u] = t.gen
					next = append(next, u)
				}
			}
		}
		t.level[d+1] = next
		if len(next) > 0 && !t.descend(d+1, prefix<<1|v, emit) {
			return false
		}
	}
	return true
}

// bump starts a new frontier generation, clearing the marks on wrap.
func (t *trie) bump() {
	t.gen++
	if t.gen == 0 {
		clear(t.mark)
		t.gen = 1
	}
}
