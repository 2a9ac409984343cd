package regex

import (
	"fmt"

	"automatazoo/internal/automata"
)

// CompileResult carries the compiled automaton plus the pattern metadata
// that downstream rule engines (Snort, YARA) need.
type CompileResult struct {
	Automaton   *automata.Automaton
	AnchoredEnd bool
	Positions   int // number of Glushkov positions (= states)
}

// Compile parses and compiles a single pattern into its own automaton. The
// reporting states carry code.
func Compile(pattern string, flags Flags, code int32) (*CompileResult, error) {
	b := automata.NewBuilder()
	parsed, err := Parse(pattern, flags)
	if err != nil {
		return nil, err
	}
	n, err := CompileInto(b, parsed, code)
	if err != nil {
		return nil, err
	}
	a, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &CompileResult{Automaton: a, AnchoredEnd: parsed.AnchoredEnd, Positions: n}, nil
}

// CompileInto compiles an already-parsed pattern into an existing builder,
// so rule-set benchmarks can assemble thousands of patterns into one
// automaton without intermediate copies. It returns the number of states
// added. The pattern's first positions become start states (all-input for
// unanchored patterns, start-of-data for ^-anchored ones); its last
// positions report with code.
func CompileInto(b *automata.Builder, parsed *Parsed, code int32) (int, error) {
	g := &glushkov{b: b}
	info, err := g.build(expand(parsed.root))
	if err != nil {
		return 0, err
	}
	if info.nullable {
		return 0, &SyntaxError{Pattern: parsed.Pattern, Msg: "pattern matches the empty string"}
	}
	start := automata.StartAllInput
	if parsed.AnchoredStart {
		start = automata.StartOfData
	}
	for _, p := range info.first {
		b.SetStart(p, start)
	}
	for _, p := range info.last {
		b.SetReport(p, code)
	}
	return g.count, nil
}

// expand rewrites kindRepeat nodes into concatenations of copies so the
// Glushkov construction only sees lit/concat/alt/star-free structure plus
// optionality. {n,m} becomes n copies plus (m−n) optional copies; {n,}
// becomes n copies with the last self-looping (or a star when n == 0).
// Star/plus/quest survive as min/max repeats and are handled natively by
// the position construction below, so expansion applies only to counted
// repeats with min or max > 1.
func expand(n *node) *node {
	switch n.kind {
	case kindLit:
		return n
	case kindConcat, kindAlt:
		subs := make([]*node, len(n.subs))
		for i, s := range n.subs {
			subs[i] = expand(s)
		}
		return &node{kind: n.kind, subs: subs}
	case kindRepeat:
		sub := expand(n.sub)
		min, max := n.min, n.max
		// Native forms: ?, *, +.
		if min <= 1 && (max == -1 || max == 1) {
			return &node{kind: kindRepeat, sub: sub, min: min, max: max}
		}
		var parts []*node
		for i := 0; i < min; i++ {
			parts = append(parts, deepCopy(sub))
		}
		switch {
		case max == -1: // {n,} with n >= 1: final copy gets a plus
			if len(parts) > 0 {
				parts[len(parts)-1] = &node{kind: kindRepeat, sub: parts[len(parts)-1], min: 1, max: -1}
			} else {
				parts = append(parts, &node{kind: kindRepeat, sub: deepCopy(sub), min: 0, max: -1})
			}
		default:
			for i := min; i < max; i++ {
				parts = append(parts, &node{kind: kindRepeat, sub: deepCopy(sub), min: 0, max: 1})
			}
		}
		if len(parts) == 1 {
			return parts[0]
		}
		return &node{kind: kindConcat, subs: parts}
	}
	return n
}

func deepCopy(n *node) *node {
	cp := &node{kind: n.kind, class: n.class, min: n.min, max: n.max}
	if n.sub != nil {
		cp.sub = deepCopy(n.sub)
	}
	for _, s := range n.subs {
		cp.subs = append(cp.subs, deepCopy(s))
	}
	return cp
}

// glushkov performs the position construction directly into a builder:
// every literal becomes one STE, follow(p,q) becomes the edge p→q.
type glushkov struct {
	b     *automata.Builder
	count int
}

// info summarizes a subexpression: its first and last position sets and
// nullability. Positions are builder state IDs. An info owns its two
// slices, which never share spare capacity, so a parent may extend them in
// place.
type info struct {
	first, last []automata.StateID
	nullable    bool
}

func (g *glushkov) build(n *node) (info, error) {
	switch n.kind {
	case kindLit:
		if n.class.IsEmpty() {
			return info{}, fmt.Errorf("regex: empty character class matches nothing")
		}
		id := g.b.AddSTE(n.class, automata.StartNone)
		g.count++
		pos := []automata.StateID{id, id}
		return info{first: pos[:1:1], last: pos[1:]}, nil

	case kindConcat:
		if len(n.subs) == 0 {
			return info{nullable: true}, nil
		}
		cur, err := g.build(n.subs[0])
		if err != nil {
			return info{}, err
		}
		for _, sn := range n.subs[1:] {
			nxt, err := g.build(sn)
			if err != nil {
				return info{}, err
			}
			// follow: last(cur) → first(nxt)
			for _, p := range cur.last {
				for _, q := range nxt.first {
					g.b.AddEdge(p, q)
				}
			}
			// first(cur·nxt) is first(cur), plus first(nxt) if cur is
			// nullable; last is last(nxt), plus last(cur) if nxt is.
			if cur.nullable {
				cur.first = append(cur.first, nxt.first...)
			}
			if nxt.nullable {
				nxt.last = append(nxt.last, cur.last...)
			}
			cur.last = nxt.last
			cur.nullable = cur.nullable && nxt.nullable
		}
		return cur, nil

	case kindAlt:
		out := info{}
		for i, sn := range n.subs {
			si, err := g.build(sn)
			if err != nil {
				return info{}, err
			}
			if i == 0 {
				out = si
				continue
			}
			out.first = append(out.first, si.first...)
			out.last = append(out.last, si.last...)
			out.nullable = out.nullable || si.nullable
		}
		return out, nil

	case kindRepeat:
		si, err := g.build(n.sub)
		if err != nil {
			return info{}, err
		}
		switch {
		case n.min == 0 && n.max == 1: // ?
			si.nullable = true
			return si, nil
		case n.max == -1: // * or +
			for _, p := range si.last {
				for _, q := range si.first {
					g.b.AddEdge(p, q)
				}
			}
			if n.min == 0 {
				si.nullable = true
			}
			return si, nil
		case n.min == 1 && n.max == 1:
			return si, nil
		}
		return info{}, fmt.Errorf("regex: unexpanded counted repeat {%d,%d}", n.min, n.max)
	}
	return info{}, fmt.Errorf("regex: unknown node kind %d", n.kind)
}
