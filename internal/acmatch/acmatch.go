// Package acmatch implements Aho–Corasick multi-literal matching: the
// classic trie-with-failure-links automaton production scanners (including
// Hyperscan) use to prefilter literal-heavy rule sets before touching
// their regex engines. In this suite it serves two roles: a literal
// prefilter for signature benchmarks (ClamAV/YARA bodies are mostly exact
// bytes), and a third independent engine for differential testing of the
// NFA and DFA engines on literal workloads.
package acmatch

import (
	"fmt"
	"slices"
)

// Match is one literal occurrence: pattern index and the offset of its
// final byte.
type Match struct {
	Pattern int
	End     int64
}

// Matcher is a compiled Aho–Corasick automaton. Immutable after Compile;
// safe for concurrent scanning.
//
// Nodes are numbered in BFS order — the root 0, depth-1 nodes in the order
// the patterns introduce them, deeper levels by parent, then byte — so
// fail[u] < u. The prefilter's checkpoints encode node IDs (its frontier
// sentinel), so this numbering must not change.
//
// Node u's children are edgeByte/edgeTo[edgeOff[u]:edgeOff[u+1]], sorted by
// byte; its outputs (its own patterns in index order, then its fail node's)
// are outPat[outOff[u]:outOff[u+1]]. The first maxDenseNodes nodes also get
// full 256-entry transition rows: the scan spends nearly all its time near
// the root, where a step is then one array load. Deeper nodes search their
// edges and follow failure links down to a dense row.
type Matcher struct {
	edgeOff  []int32
	edgeByte []byte
	edgeTo   []int32
	fail     []int32
	outOff   []int32
	outPat   []int32
	lens     []int

	dense [][256]int32 // rows for nodes [0, len(dense))
}

// maxDenseNodes bounds the dense-row memory (8192 nodes ≈ 8 MiB).
const maxDenseNodes = 8192

// Compile builds the matcher from the given byte patterns. Empty patterns
// are rejected; duplicates are allowed (each reports its own index).
func Compile(patterns [][]byte) (*Matcher, error) {
	m := &Matcher{lens: make([]int, len(patterns))}
	total := 0
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("acmatch: pattern %d is empty", i)
		}
		m.lens[i] = len(p)
		total += len(p)
	}
	m.link(m.buildTrie(patterns, total))
	return m, nil
}

// buildTrie lays the trie out one level at a time, creating nodes in
// their final BFS order. cur lists the patterns that reach depth d,
// grouped by node (at) in ID order and by index within a node. Patterns
// of length d end there; the rest of each node's group is stably sorted
// by byte, and each run of equal bytes becomes the next child ID. At
// depth 0 the sort key is a byte's first use instead of the byte, which
// orders the depth-1 nodes by the first pattern that starts with them. It
// fills the edge arrays and returns each node's own patterns,
// ownPat[own[u]:own[u+1]].
func (m *Matcher) buildTrie(patterns [][]byte, total int) (own, ownPat []int32) {
	cur, at := make([]int32, len(patterns)), make([]int32, len(patterns))
	own, ownPat = make([]int32, total+2), make([]int32, 0, len(patterns))
	m.edgeOff = make([]int32, 0, total+2)
	m.edgeByte = make([]byte, 0, total)
	m.edgeTo = make([]int32, 0, total)

	var key [256]int // depth 0: first-use rank from 1, 0 if unused
	rank := 0
	for i, p := range patterns {
		cur[i] = int32(i)
		if key[p[0]] == 0 {
			rank++
			key[p[0]] = rank
		}
	}
	for lo, next, d := int32(0), int32(1), 0; lo < next; d++ {
		live := 0
		for k, i := range cur {
			if len(patterns[i]) == d {
				ownPat = append(ownPat, i)
				own[at[k]+1]++
				continue
			}
			cur[live], at[live] = i, at[k]
			live++
		}
		cur, at = cur[:live], at[:live]
		byKey := func(x, y int32) int { return key[patterns[x][d]] - key[patterns[y][d]] }
		k, hi := 0, next
		for u := lo; u < hi; u++ {
			first, end := len(m.edgeTo), k
			m.edgeOff = append(m.edgeOff, int32(first))
			for end < live && at[end] == u {
				end++
			}
			slices.SortStableFunc(cur[k:end], byKey)
			for ; k < end; k++ {
				c := patterns[cur[k]][d]
				if len(m.edgeTo) == first || m.edgeByte[len(m.edgeByte)-1] != c {
					m.edgeByte = append(m.edgeByte, c)
					m.edgeTo = append(m.edgeTo, next)
					next++
				}
				at[k] = next - 1
			}
		}
		if d == 0 {
			// The root's edges came out in first-use order, so a byte's
			// child is its rank; store them in byte order like every other
			// node's. Deeper levels sort by the byte itself.
			m.edgeByte, m.edgeTo = m.edgeByte[:0], m.edgeTo[:0]
			for c, r := range key {
				if r != 0 {
					m.edgeByte, m.edgeTo = append(m.edgeByte, byte(c)), append(m.edgeTo, int32(r))
				}
				key[c] = c
			}
		}
		lo = hi
	}
	m.edgeOff = append(m.edgeOff, int32(len(m.edgeTo)))

	// Patterns ended level by level, each level in node order, so ownPat
	// is already grouped by node; own[u] becomes node u's first entry.
	own = own[:len(m.edgeOff)]
	for u := 1; u < len(own); u++ {
		own[u] += own[u-1]
	}
	return own, ownPat
}

// link sets the failure links, dense rows and output lists in one
// ascending pass. A node's row is its fail node's row with its own edges
// written over it; a child's fail node is where the parent's fail node
// steps on the child's byte; a node's outputs are its own patterns
// (ownPat[own[u]:own[u+1]]), then its fail node's. All three read only
// nodes with smaller IDs, which are final.
func (m *Matcher) link(own, ownPat []int32) {
	n := len(m.edgeOff) - 1
	m.fail = make([]int32, n)
	m.outOff = make([]int32, n+1)
	m.dense = make([][256]int32, min(n, maxDenseNodes))
	for u := 0; u < n; u++ {
		lo, hi := m.edgeOff[u], m.edgeOff[u+1]
		f := m.fail[u]
		if u < len(m.dense) {
			if u > 0 {
				m.dense[u] = m.dense[f]
			}
			for k := lo; k < hi; k++ {
				m.dense[u][m.edgeByte[k]] = m.edgeTo[k]
			}
		}
		if u == 0 {
			continue // the root has no outputs, and its children fail to it
		}
		m.outOff[u+1] = m.outOff[u] + own[u+1] - own[u] + m.outOff[f+1] - m.outOff[f]
		for k := lo; k < hi; k++ {
			m.fail[m.edgeTo[k]] = m.step(f, m.edgeByte[k])
		}
	}
	m.outPat = make([]int32, m.outOff[n])
	for u := 1; u < n; u++ {
		f := m.fail[u]
		k := m.outOff[u] + int32(copy(m.outPat[m.outOff[u]:], ownPat[own[u]:own[u+1]]))
		copy(m.outPat[k:], m.outPat[m.outOff[f]:m.outOff[f+1]])
	}
}

// NumNodes returns the trie size (including the root).
func (m *Matcher) NumNodes() int { return len(m.fail) }

// step advances from state via byte c.
func (m *Matcher) step(state int32, c byte) int32 {
	if int(state) < len(m.dense) {
		return m.dense[state][c]
	}
	return m.slowStep(state, c)
}

// slowStep is the sparse path for nodes past the dense rows: search the
// node's edges, else follow its failure link, until a dense row answers.
func (m *Matcher) slowStep(state int32, c byte) int32 {
	for int(state) >= len(m.dense) {
		if nxt, ok := m.child(state, c); ok {
			return nxt
		}
		state = m.fail[state]
	}
	return m.dense[state][c]
}

// child returns u's goto edge on c.
func (m *Matcher) child(u int32, c byte) (int32, bool) {
	lo, hi := m.edgeOff[u], m.edgeOff[u+1]
	k, ok := slices.BinarySearch(m.edgeByte[lo:hi], c)
	if !ok {
		return 0, false
	}
	return m.edgeTo[lo+int32(k)], true
}

// ScanFunc streams matches to fn.
func (m *Matcher) ScanFunc(input []byte, fn func(Match)) {
	state := int32(0)
	for i, c := range input {
		state = m.step(state, c)
		for k := m.outOff[state]; k < m.outOff[state+1]; k++ {
			fn(Match{Pattern: int(m.outPat[k]), End: int64(i)})
		}
	}
}

// StepFrom advances one byte from an explicit state, invoking fn for every
// pattern ending at this byte, and returns the new state. State 0 is the
// initial state. This is the streaming form used by incremental scanners.
func (m *Matcher) StepFrom(state int32, c byte, fn func(pattern int)) int32 {
	state = m.step(state, c)
	for k := m.outOff[state]; k < m.outOff[state+1]; k++ {
		fn(int(m.outPat[k]))
	}
	return state
}

// PrefixWeights precomputes, per trie node, how many pattern-chain states
// a literal-chain NFA would have active and enabled when the matcher sits
// at that node. The two-stage prefilter (internal/prefilter) uses these to
// reproduce sim.Stats exactly without stepping the chains:
//
//   - active[u]: the number of (pattern, position) pairs whose prefix is a
//     suffix of the input when the matcher is at u after consuming a byte —
//     exactly the chain states a full NFA would have matched that byte.
//   - enabled[u]: the number of those pairs whose chain continues (the
//     position is not the pattern's last), i.e. the chain states enabled
//     for the NEXT byte, excluding the always-enabled chain heads (sim
//     excludes indexed all-input starts from Stats.Enabled).
//
// patterns must be the literal set the matcher was compiled from. The
// computation walks each pattern's goto path accumulating through/ends
// counts per node, then folds them down the failure links: BFS numbering
// guarantees fail[u] < u, so one ascending pass resolves
// w[u] = w[fail[u]] + own[u].
func (m *Matcher) PrefixWeights(patterns [][]byte) (active, enabled []int64, err error) {
	n := len(m.fail)
	through := make([]int64, n)
	ends := make([]int64, n)
	for i, p := range patterns {
		cur := int32(0)
		for _, c := range p {
			nxt, ok := m.child(cur, c)
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

// Count returns per-pattern occurrence counts in input.
func (m *Matcher) Count(input []byte) []int64 {
	counts := make([]int64, len(m.lens))
	m.ScanFunc(input, func(mt Match) { counts[mt.Pattern]++ })
	return counts
}
