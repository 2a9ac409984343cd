package acmatch

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"automatazoo/internal/clamav"
	"automatazoo/internal/randx"
)

// refMatcher is the map-based Aho–Corasick body that Compile replaced,
// kept as the oracle for TestCompileMatchesReference and
// FuzzCompileMatchesReference: per-node goto maps, a BFS over them that
// sets failure links, a renumbering pass into BFS order and 256 map
// lookups per dense row. Node numbering, failure links, output lists and
// dense rows must come out identical.
type refMatcher struct {
	next   []map[byte]int32
	fail   []int32
	output [][]int32
	lens   []int

	dense [][256]int32
}

func compileRef(patterns [][]byte) (*refMatcher, error) {
	m := &refMatcher{
		next:   []map[byte]int32{{}},
		fail:   []int32{0},
		output: [][]int32{nil},
	}
	m.lens = make([]int, len(patterns))
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("acmatch: pattern %d is empty", i)
		}
		m.lens[i] = len(p)
		cur := int32(0)
		for _, c := range p {
			nxt, ok := m.next[cur][c]
			if !ok {
				nxt = int32(len(m.next))
				m.next = append(m.next, map[byte]int32{})
				m.fail = append(m.fail, 0)
				m.output = append(m.output, nil)
				m.next[cur][c] = nxt
			}
			cur = nxt
		}
		m.output[cur] = append(m.output[cur], int32(i))
	}
	// BFS to set failure links and merge outputs.
	queue := make([]int32, 0, len(m.next))
	for _, v := range m.next[0] {
		queue = append(queue, v)
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		// Deterministic child order keeps the BFS renumbering stable.
		children := make([]byte, 0, len(m.next[u]))
		for c := range m.next[u] {
			children = append(children, c)
		}
		sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
		for _, c := range children {
			v := m.next[u][c]
			queue = append(queue, v)
			f := m.fail[u]
			for f != 0 {
				if w, ok := m.next[f][c]; ok {
					f = w
					goto linked
				}
				f = m.fail[f]
			}
			if w, ok := m.next[0][c]; ok && w != v {
				f = w
			} else {
				f = 0
			}
		linked:
			m.fail[v] = f
			m.output[v] = append(m.output[v], m.output[f]...)
		}
	}
	m.renumberBFS(queue)
	m.buildDense()
	return m, nil
}

func (m *refMatcher) renumberBFS(bfs []int32) {
	n := len(m.next)
	newID := make([]int32, n)
	newID[0] = 0
	for i, old := range bfs {
		newID[old] = int32(i + 1)
	}
	next := make([]map[byte]int32, n)
	fail := make([]int32, n)
	output := make([][]int32, n)
	for old := 0; old < n; old++ {
		nu := newID[old]
		mp := make(map[byte]int32, len(m.next[old]))
		for c, v := range m.next[old] {
			mp[c] = newID[v]
		}
		next[nu] = mp
		fail[nu] = newID[m.fail[old]]
		output[nu] = m.output[old]
	}
	m.next, m.fail, m.output = next, fail, output
}

func (m *refMatcher) buildDense() {
	limit := len(m.next)
	if limit > maxDenseNodes {
		limit = maxDenseNodes
	}
	m.dense = make([][256]int32, limit)
	for u := 0; u < limit; u++ {
		for c := 0; c < 256; c++ {
			if v, ok := m.next[u][byte(c)]; ok {
				m.dense[u][c] = v
			} else if u == 0 {
				m.dense[u][c] = 0
			} else {
				f := m.fail[u]
				if int(f) < limit {
					m.dense[u][c] = m.dense[f][c]
				} else {
					m.dense[u][c] = m.slowStep(f, byte(c))
				}
			}
		}
	}
}

func (m *refMatcher) step(state int32, c byte) int32 {
	if int(state) < len(m.dense) {
		return m.dense[state][c]
	}
	return m.slowStep(state, c)
}

func (m *refMatcher) slowStep(state int32, c byte) int32 {
	for {
		if nxt, ok := m.next[state][c]; ok {
			return nxt
		}
		if state == 0 {
			return 0
		}
		state = m.fail[state]
	}
}

func (m *refMatcher) ScanFunc(input []byte, fn func(Match)) {
	state := int32(0)
	for i, c := range input {
		state = m.step(state, c)
		for _, p := range m.output[state] {
			fn(Match{Pattern: int(p), End: int64(i)})
		}
	}
}

func (m *refMatcher) PrefixWeights(patterns [][]byte) (active, enabled []int64, err error) {
	n := len(m.next)
	through := make([]int64, n)
	ends := make([]int64, n)
	for i, p := range patterns {
		cur := int32(0)
		for _, c := range p {
			nxt, ok := m.next[cur][c]
			if !ok {
				return nil, nil, fmt.Errorf("acmatch: pattern %d not in trie (matcher compiled from a different set)", i)
			}
			cur = nxt
			through[cur]++
		}
		ends[cur]++
	}
	active = make([]int64, n)
	enabled = make([]int64, n)
	for u := 1; u < n; u++ {
		f := m.fail[u]
		active[u] = active[f] + through[u]
		enabled[u] = enabled[f] + through[u] - ends[u]
	}
	return active, enabled, nil
}

// checkMatchesReference compiles patterns with both bodies and requires
// the same node numbering (goto edges), failure links, output lists in
// order, dense rows, prefix weights, and match stream over input — the
// latter also against brute force.
func checkMatchesReference(t *testing.T, patterns [][]byte, input []byte) {
	t.Helper()
	ref, refErr := compileRef(patterns)
	m, err := Compile(patterns)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Compile error %v, reference %v", err, refErr)
	}
	if err != nil {
		return
	}
	if m.NumNodes() != len(ref.next) {
		t.Fatalf("nodes=%d, reference %d", m.NumNodes(), len(ref.next))
	}
	for u := range ref.next {
		lo, hi := m.edgeOff[u], m.edgeOff[u+1]
		if int(hi-lo) != len(ref.next[u]) || !slices.IsSorted(m.edgeByte[lo:hi]) {
			t.Fatalf("node %d: edges %v, reference %v", u, m.edgeByte[lo:hi], ref.next[u])
		}
		for k := lo; k < hi; k++ {
			if v, ok := ref.next[u][m.edgeByte[k]]; !ok || v != m.edgeTo[k] {
				t.Fatalf("node %d byte %#x: goto %d, reference %d (%v)", u, m.edgeByte[k], m.edgeTo[k], v, ok)
			}
		}
		if m.fail[u] != ref.fail[u] {
			t.Fatalf("node %d: fail %d, reference %d", u, m.fail[u], ref.fail[u])
		}
		if got := m.outPat[m.outOff[u]:m.outOff[u+1]]; !slices.Equal(got, ref.output[u]) {
			t.Fatalf("node %d: outputs %v, reference %v", u, got, ref.output[u])
		}
	}
	if len(m.dense) != len(ref.dense) {
		t.Fatalf("dense rows=%d, reference %d", len(m.dense), len(ref.dense))
	}
	for u := range ref.dense {
		if m.dense[u] != ref.dense[u] {
			t.Fatalf("dense row %d differs", u)
		}
	}
	active, enabled, err := m.PrefixWeights(patterns)
	refActive, refEnabled, refErr := ref.PrefixWeights(patterns)
	if err != nil || refErr != nil || !slices.Equal(active, refActive) || !slices.Equal(enabled, refEnabled) {
		t.Fatalf("PrefixWeights differ (err %v, reference %v)", err, refErr)
	}
	var got, want []Match
	m.ScanFunc(input, func(mt Match) { got = append(got, mt) })
	ref.ScanFunc(input, func(mt Match) { want = append(want, mt) })
	if !slices.Equal(got, want) {
		t.Fatalf("ScanFunc: %d matches, reference %d", len(got), len(want))
	}
	naive := naiveMatches(patterns, input)
	for _, mt := range got {
		naive[mt]--
	}
	for mt, c := range naive {
		if c != 0 {
			t.Fatalf("match %v: count off by %d from brute force", mt, c)
		}
	}
}

// clamavBodies returns the literal bodies of n synthetic ClamAV signatures
// (the prefilter benchmark's anchor set).
func clamavBodies(t testing.TB, n int) [][]byte {
	var out [][]byte
	for _, sg := range clamav.Generate(n, 0xa20) {
		body, err := clamav.VirusBody(sg)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > 0 {
			out = append(out, body)
		}
	}
	return out
}

func TestCompileMatchesReference(t *testing.T) {
	rng := randx.New(29)
	for trial := 0; trial < 300; trial++ {
		// Small alphabets share prefixes and suffixes; binary trials put
		// 256-way fan-out at the root.
		alpha := 2 + rng.Intn(3)
		if trial%5 == 0 {
			alpha = 256
		}
		patterns := make([][]byte, 1+rng.Intn(40))
		for i := range patterns {
			if i > 0 && rng.Intn(6) == 0 {
				patterns[i] = patterns[rng.Intn(i)] // duplicate
				continue
			}
			p := make([]byte, 1+rng.Intn(12))
			for j := range p {
				p[j] = byte(rng.Intn(alpha))
			}
			patterns[i] = p
		}
		input := make([]byte, rng.Intn(400))
		for i := range input {
			input[i] = byte(rng.Intn(alpha))
		}
		checkMatchesReference(t, patterns, input)
	}

	// Enough ClamAV bodies for more than maxDenseNodes nodes, scanned over
	// input that embeds whole bodies so the sparse path runs deep.
	bodies := clamavBodies(t, 300)
	var input []byte
	for i, b := range bodies {
		input = append(input, byte(i), 0xff)
		input = append(input, b...)
		input = append(input, b[:len(b)/2]...)
	}
	ref, err := compileRef(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.next) <= maxDenseNodes {
		t.Fatalf("%d ClamAV bodies make only %d nodes; want more than %d", len(bodies), len(ref.next), maxDenseNodes)
	}
	checkMatchesReference(t, bodies, input)
}

// FuzzCompileMatchesReference decodes data into a pattern set (each
// pattern a length byte, 1–8, then that many bytes) and checks it
// against the reference body and brute force on input.
func FuzzCompileMatchesReference(f *testing.F) {
	f.Add([]byte("\x02he\x03she\x03his\x04hers"), []byte("ushers in his house"))
	f.Add([]byte("\x01a\x02aa\x03aaa\x01a"), []byte("aaaaaa"))
	f.Add([]byte{1, 0, 2, 0xff, 0, 2, 0, 0xff, 3, 0xff, 0, 0xff}, []byte{0xff, 0, 0xff, 0, 0xff, 0})
	f.Fuzz(func(t *testing.T, data, input []byte) {
		var patterns [][]byte
		for i := 0; i < len(data) && len(patterns) < 64; {
			l := int(data[i])%8 + 1
			i++
			if i+l > len(data) {
				break
			}
			patterns = append(patterns, data[i:i+l])
			i += l
		}
		if len(patterns) == 0 {
			return
		}
		checkMatchesReference(t, patterns, input)
	})
}

// TestCompileAllocsConstant pins the flat layout: Compile allocates its
// arrays and scratch once, sized from the pattern set, and nothing per
// node, edge or pattern. The collector is off while counting: a cycle
// set off by the 8 MiB of dense rows allocates on its own account.
func TestCompileAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		bodies := clamavBodies(t, n)
		v := testing.AllocsPerRun(3, func() {
			if _, err := Compile(bodies); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d bodies: %.0f allocs", n, v)
		return v
	}
	if small, large := allocs(60), allocs(1000); small != large {
		t.Fatalf("Compile allocated %.0f objects for 60 ClamAV bodies and %.0f for 1 000; want the same constant", small, large)
	}
}
