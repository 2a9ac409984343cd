package bitnfa

import (
	"math/rand"
	"testing"

	"automatazoo/internal/sim"
)

// offsetsFromSim runs the strided byte automaton and returns distinct
// reporting offsets (homogenization can duplicate reports across split
// copies activating in the same cycle, so offsets — not counts — are the
// invariant).
func offsetsFromStride(t *testing.T, a *Automaton, input []byte) map[int64]bool {
	t.Helper()
	byteA, err := a.Stride8()
	if err != nil {
		t.Fatalf("Stride8: %v", err)
	}
	e := sim.New(byteA)
	out := map[int64]bool{}
	e.OnReport = func(r sim.Report) { out[r.Offset] = true }
	e.Run(input)
	return out
}

func offsetsFromBitSim(a *Automaton, input []byte) map[int64]bool {
	out := map[int64]bool{}
	for _, r := range a.Simulate(input) {
		out[r[0]] = true
	}
	return out
}

func sameOffsets(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// bytePattern builds one start chain of (value, careMask) byte matchers
// reporting code 0 at its tail.
func bytePattern(bytes ...[2]byte) *Automaton {
	a := New()
	tail := StateID(NoTail)
	for i, b := range bytes {
		tail = a.AppendByte(tail, b[0], b[1], i == 0)
	}
	a.SetReport(tail, 0)
	return a
}

// rangePattern builds a width-bit acceptor of [lo, hi] reporting code 0
// at every tail.
func rangePattern(width uint, lo, hi uint64) (*Automaton, error) {
	a := New()
	tails, err := a.AppendUintRange(NoTail, width, lo, hi)
	for _, tl := range tails {
		a.SetReport(tl, 0)
	}
	return a, err
}

// dosTimePattern is the 16-bit MS-DOS time stamp: a 5-bit field in
// [0,23], a 6-bit field in [0,59] and a 5-bit field in [0,29].
func dosTimePattern() (*Automaton, error) {
	a := New()
	tails, err := a.AppendUintRange(NoTail, 5, 0, 23) // hours (high bits)
	if err != nil {
		return nil, err
	}
	for _, f := range []struct{ width, hi uint64 }{{6, 59}, {5, 29}} {
		var next []StateID
		for _, tl := range tails {
			ts, err := a.AppendUintRange(tl, uint(f.width), 0, f.hi)
			if err != nil {
				return nil, err
			}
			next = append(next, ts...)
		}
		tails = next
	}
	for _, tl := range tails {
		a.SetReport(tl, 0)
	}
	return a, nil
}

// compositePattern is the shape of a real file-format signature: literal
// header, a cross-byte 16-bit field in [300, 7000], literal trailer.
func compositePattern() (*Automaton, error) {
	a := New()
	head := a.AppendByte(NoTail, 0x50, 0xFF, true)
	head = a.AppendByte(head, 0x4B, 0xFF, false)
	tails, err := a.AppendUintRange(head, 16, 300, 7000)
	if err != nil {
		return nil, err
	}
	for _, tl := range tails {
		a.SetReport(a.AppendByte(tl, 0xFF, 0xFF, false), 0)
	}
	return a, nil
}

// midBytePattern is a k-bit chain of MatchOne states reporting at its
// tail: for k not a multiple of 8 it reports mid-byte.
func midBytePattern(k int) *Automaton {
	a := New()
	tail := StateID(NoTail)
	for i := 0; i < k; i++ {
		id := a.AddState(MatchOne, tail == NoTail)
		if tail != NoTail {
			a.AddEdge(tail, id)
		}
		tail = id
	}
	a.SetReport(tail, 0)
	return a
}

// randomChain is one trial of TestRandomizedStrideEquivalence: a start
// chain of 1..3 random masked bytes.
func randomChain(rng *rand.Rand) *Automaton {
	a := New()
	nBytes := 1 + rng.Intn(3)
	tail := StateID(NoTail)
	for i := 0; i < nBytes; i++ {
		tail = a.AppendByte(tail, byte(rng.Intn(256)), byte(rng.Intn(256)), i == 0)
	}
	a.SetReport(tail, 0)
	return a
}

func TestAppendByteExact(t *testing.T) {
	a := bytePattern([2]byte{0xAB, 0xFF}, [2]byte{0xCD, 0xFF})
	if a.NumStates() != 16 {
		t.Fatalf("states=%d", a.NumStates())
	}
	input := []byte{0x00, 0xAB, 0xCD, 0xAB, 0xCD}
	got := offsetsFromStride(t, a, input)
	want := map[int64]bool{2: true, 4: true}
	if !sameOffsets(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestAppendByteNibbleWildcard(t *testing.T) {
	// Match ?A: low nibble A, high nibble anything.
	a := bytePattern([2]byte{0x0A, 0x0F})
	got := offsetsFromStride(t, a, []byte{0x1A, 0xFA, 0xAB, 0x0A})
	want := map[int64]bool{0: true, 1: true, 3: true}
	if !sameOffsets(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStrideMatchesBitSimulation(t *testing.T) {
	a := bytePattern([2]byte{0x50, 0xF0}, [2]byte{0x03, 0xFF}) // high nibble 5
	rng := rand.New(rand.NewSource(3))
	input := make([]byte, 200)
	for i := range input {
		input[i] = byte(rng.Intn(256))
	}
	input = append(input, 0x5F, 0x03)
	if !sameOffsets(offsetsFromStride(t, a, input), offsetsFromBitSim(a, input)) {
		t.Fatal("strided and bit-level semantics disagree")
	}
}

func TestUintRangeSingleByte(t *testing.T) {
	// Range [3, 17] in one 8-bit field.
	a, err := rangePattern(8, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	byteA, err := a.Stride8()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(byteA)
	for v := 0; v < 256; v++ {
		e.Reset()
		e.Reset()
		got := e.Run([]byte{byte(v)}).Reports > 0
		want := v >= 3 && v <= 17
		if got != want {
			t.Fatalf("value %d: matched=%v want %v", v, got, want)
		}
	}
}

func TestUintRangeSplitFields(t *testing.T) {
	// A 16-bit structure: 5-bit field in [0,29], then 6-bit field in
	// [0,59], then 5-bit field in [0,23] — the MS-DOS time stamp layout.
	a, err := dosTimePattern()
	if err != nil {
		t.Fatal(err)
	}
	byteA, err := a.Stride8()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(byteA)
	check := func(hour, min, sec2 int, want bool) {
		t.Helper()
		v := uint16(hour)<<11 | uint16(min)<<5 | uint16(sec2)
		e.Reset()
		e.Reset()
		got := e.Run([]byte{byte(v >> 8), byte(v)}).Reports > 0
		if got != want {
			t.Fatalf("h=%d m=%d s=%d: matched=%v want %v", hour, min, sec2, got, want)
		}
	}
	check(12, 30, 15, true)
	check(23, 59, 29, true)
	check(0, 0, 0, true)
	check(24, 0, 0, false) // hour out of range
	check(0, 60, 0, false) // minute out of range
	check(0, 0, 30, false) // seconds out of range
}

func TestUintRangeErrors(t *testing.T) {
	a := New()
	if _, err := a.AppendUintRange(NoTail, 0, 0, 1); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := a.AppendUintRange(NoTail, 4, 5, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := a.AppendUintRange(NoTail, 4, 0, 16); err == nil {
		t.Error("hi out of width accepted")
	}
}

func TestMidByteReportRejected(t *testing.T) {
	// A k-bit pattern reports on bit 8-k of its byte: every k but 8 is
	// rejected, whichever trie level the report sits on.
	for k := 1; k <= 8; k++ {
		_, err := midBytePattern(k).Stride8()
		if (err != nil) != (k != 8) {
			t.Fatalf("%d-bit pattern: err=%v", k, err)
		}
	}
}

func TestCrossByteBitField(t *testing.T) {
	// A 16-bit big-endian value in [300, 700]: the field crosses the byte
	// boundary, which is the case regexes cannot express.
	a, err := rangePattern(16, 300, 700)
	if err != nil {
		t.Fatal(err)
	}
	byteA, err := a.Stride8()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(byteA)
	for _, c := range []struct {
		v    uint16
		want bool
	}{{299, false}, {300, true}, {512, true}, {700, true}, {701, false}, {0, false}, {65535, false}} {
		e.Reset()
		e.Reset()
		got := e.Run([]byte{byte(c.v >> 8), byte(c.v)}).Reports > 0
		if got != c.want {
			t.Fatalf("v=%d matched=%v want %v", c.v, got, c.want)
		}
	}
}

func TestStridedFanOutIsHigh(t *testing.T) {
	// Striding cross-byte bit-fields produces byte automata with the
	// characteristic high edges/node of Table I's File Carving benchmark
	// (58.8): boundary-crossing fields split anchors into many byte-set
	// copies with dense interconnection. Nibble-aligned patterns, by
	// contrast, stride to simple chains.
	a, err := compositePattern()
	if err != nil {
		t.Fatal(err)
	}
	byteA, err := a.Stride8()
	if err != nil {
		t.Fatal(err)
	}
	compositeRatio := float64(byteA.NumEdges()) / float64(byteA.NumStates())

	// Pure literal chain for comparison: always ratio < 1.
	litA, err := bytePattern([2]byte{0x50, 0xFF}, [2]byte{0x4B, 0xFF}, [2]byte{0x03, 0xFF}).Stride8()
	if err != nil {
		t.Fatal(err)
	}
	litRatio := float64(litA.NumEdges()) / float64(litA.NumStates())
	if compositeRatio <= litRatio {
		t.Fatalf("composite ratio %.2f not denser than literal chain %.2f",
			compositeRatio, litRatio)
	}
}

func TestRandomizedStrideEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		a := randomChain(rng)
		input := make([]byte, 64)
		for i := range input {
			input[i] = byte(rng.Intn(4)) // small alphabet → more matches
		}
		if !sameOffsets(offsetsFromStride(t, a, input), offsetsFromBitSim(a, input)) {
			t.Fatalf("trial %d: stride/bit-sim mismatch", trial)
		}
	}
}

// TestStride8Allocs bounds Stride8's allocations by its output: every
// anchor has at least one split copy, so O(anchors + output states) is
// O(output states). A per-(anchor, byte) simulation over hash sets
// allocates hundreds of times that (the seed body: 63 467 on the
// composite pattern, 712 575 on the DOS time stamp).
func TestStride8Allocs(t *testing.T) {
	composite, err := compositePattern()
	if err != nil {
		t.Fatal(err)
	}
	dos, err := dosTimePattern()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Automaton{composite, dos} {
		byteA, err := a.Stride8()
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(5, func() { a.Stride8() })
		if limit := float64(64 + 4*byteA.NumStates()); got > limit {
			t.Errorf("%d bit states -> %d byte states: %.0f allocs, limit %.0f",
				a.NumStates(), byteA.NumStates(), got, limit)
		}
	}
}
