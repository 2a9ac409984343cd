// Package regex implements the PCRE-subset regular-expression compiler that
// stands in for the paper's pcre2mnrl tool: it parses a pattern, builds a
// Glushkov position automaton, and emits a homogeneous automaton whose
// states carry character classes — the exact shape the rest of the suite
// (simulation, optimization, spatial accounting) consumes.
//
// Supported syntax: literals, '.', escapes (\d \D \w \W \s \S \xHH \n \r \t
// \f \v \a \e \0 and escaped metacharacters), bracket classes with ranges
// and negation, grouping (capturing groups are treated as non-capturing),
// alternation, the quantifiers ? * + {n} {n,} {n,m}, and the anchors ^
// (start of data) and $ (end of data, recorded as metadata — homogeneous
// automata cannot observe end-of-input). Flags: i (case-insensitive),
// s (dotall). Back-references and look-around are rejected, as they are by
// the paper's toolchain ("pcre2mnrl does not support back references").
package regex

import (
	"fmt"
	"strconv"
	"strings"

	"automatazoo/internal/charset"
)

// Flags alter pattern interpretation.
type Flags uint8

const (
	// CaseInsensitive folds ASCII letter case (PCRE /i).
	CaseInsensitive Flags = 1 << iota
	// DotAll makes '.' match newline (PCRE /s).
	DotAll
)

// node kinds of the parsed AST.
type nodeKind uint8

const (
	kindLit    nodeKind = iota // one character class
	kindConcat                 // sequence of subs
	kindAlt                    // alternation of subs
	kindRepeat                 // sub with {min,max}; max<0 = unbounded
)

type node struct {
	kind     nodeKind
	class    charset.Set // kindLit
	subs     []*node     // kindConcat, kindAlt
	sub      *node       // kindRepeat
	min, max int         // kindRepeat
}

// Parsed is the result of parsing a pattern: an AST plus the anchor
// metadata that compilation consumes.
type Parsed struct {
	root          *node
	AnchoredStart bool // pattern began with ^
	AnchoredEnd   bool // pattern ended with $
	Pattern       string
	Flags         Flags
}

// SyntaxError describes a rejected pattern.
type SyntaxError struct {
	Pattern string
	Pos     int
	Msg     string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("regex: %s at %d in %q", e.Msg, e.Pos, e.Pattern)
}

type parser struct {
	pat   string
	pos   int
	flags Flags
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Pattern: p.pat, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool  { return p.pos >= len(p.pat) }
func (p *parser) peek() byte { return p.pat[p.pos] }
func (p *parser) next() byte { b := p.pat[p.pos]; p.pos++; return b }
func (p *parser) accept(b byte) bool {
	if !p.eof() && p.peek() == b {
		p.pos++
		return true
	}
	return false
}

// Parse parses pattern under flags.
func Parse(pattern string, flags Flags) (*Parsed, error) {
	p := &parser{pat: pattern, flags: flags}
	out := &Parsed{Pattern: pattern, Flags: flags}
	if p.accept('^') {
		out.AnchoredStart = true
	}
	root, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.peek())
	}
	// Strip a trailing $: the parser treats it as a literal inside
	// parseAtom only when escaped, so detect the assertion here.
	if tail := lastLit(root); tail != nil && tail.class == charset.Single('$') && !endsEscapedDollar(pattern) {
		removeLastLit(root)
		out.AnchoredEnd = true
	}
	out.root = root
	return out, nil
}

// endsEscapedDollar reports whether the pattern's final '$' is escaped or
// inside a class, i.e. a literal dollar rather than the end anchor.
func endsEscapedDollar(pat string) bool {
	if !strings.HasSuffix(pat, "$") {
		return true // no trailing $ at all
	}
	// count preceding backslashes
	n := 0
	for i := len(pat) - 2; i >= 0 && pat[i] == '\\'; i-- {
		n++
	}
	return n%2 == 1
}

// lastLit returns the final literal node of the AST if the AST's last
// syntactic element is a bare literal (used only for '$' detection).
func lastLit(n *node) *node {
	switch n.kind {
	case kindLit:
		return n
	case kindConcat:
		if len(n.subs) == 0 {
			return nil
		}
		return lastLit(n.subs[len(n.subs)-1])
	default:
		return nil
	}
}

func removeLastLit(n *node) bool {
	if n.kind != kindConcat || len(n.subs) == 0 {
		return false
	}
	last := n.subs[len(n.subs)-1]
	if last.kind == kindLit {
		n.subs = n.subs[:len(n.subs)-1]
		return true
	}
	return removeLastLit(last)
}

func (p *parser) parseAlt() (*node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	if p.eof() || p.peek() != '|' {
		return first, nil
	}
	alt := &node{kind: kindAlt, subs: []*node{first}}
	for p.accept('|') {
		sub, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alt.subs = append(alt.subs, sub)
	}
	return alt, nil
}

func (p *parser) parseConcat() (*node, error) {
	cat := &node{kind: kindConcat}
	for !p.eof() && p.peek() != '|' && p.peek() != ')' {
		atom, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		atom, err = p.parseQuantifier(atom)
		if err != nil {
			return nil, err
		}
		cat.subs = append(cat.subs, atom)
	}
	return cat, nil
}

func (p *parser) parseQuantifier(atom *node) (*node, error) {
	if p.eof() {
		return atom, nil
	}
	var min, max int
	switch p.peek() {
	case '?':
		p.next()
		min, max = 0, 1
	case '*':
		p.next()
		min, max = 0, -1
	case '+':
		p.next()
		min, max = 1, -1
	case '{':
		save := p.pos
		p.next()
		var ok bool
		min, max, ok = p.parseBraces()
		if !ok {
			// PCRE treats an unparsable brace as a literal '{'.
			p.pos = save
			return atom, nil
		}
	default:
		return atom, nil
	}
	p.accept('?') // lazy quantifiers: match set identical, ignore
	if max >= 0 && min > max {
		return nil, p.errorf("repeat {%d,%d} has min > max", min, max)
	}
	const repeatCap = 4096
	if min > repeatCap || max > repeatCap {
		return nil, p.errorf("repeat bound exceeds %d", repeatCap)
	}
	return &node{kind: kindRepeat, sub: atom, min: min, max: max}, nil
}

// parseBraces parses the interior of {n}, {n,}, {n,m} after the '{'.
func (p *parser) parseBraces() (min, max int, ok bool) {
	start := p.pos
	digits := func() (int, bool) {
		s := p.pos
		for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
			p.pos++
		}
		if p.pos == s {
			return 0, false
		}
		v, err := strconv.Atoi(p.pat[s:p.pos])
		return v, err == nil
	}
	min, ok = digits()
	if !ok {
		p.pos = start
		return 0, 0, false
	}
	max = min
	if p.accept(',') {
		if !p.eof() && p.peek() == '}' {
			max = -1
		} else {
			max, ok = digits()
			if !ok {
				p.pos = start
				return 0, 0, false
			}
		}
	}
	if !p.accept('}') {
		p.pos = start
		return 0, 0, false
	}
	return min, max, true
}

func (p *parser) parseAtom() (*node, error) {
	switch b := p.peek(); b {
	case '(':
		p.next()
		// Group options: (?:...) non-capturing; anything else with '?' is
		// unsupported look-around / named groups.
		if p.accept('?') {
			if !p.accept(':') {
				if p.eof() {
					return nil, p.errorf("pattern ends inside (?")
				}
				return nil, p.errorf("unsupported group construct (?%c", p.peek())
			}
		}
		sub, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if !p.accept(')') {
			return nil, p.errorf("missing )")
		}
		return sub, nil
	case ')':
		return nil, p.errorf("unmatched )")
	case '[':
		cls, err := p.parseClass()
		if err != nil {
			return nil, err
		}
		return p.lit(cls), nil
	case '.':
		p.next()
		if p.flags&DotAll != 0 {
			return p.lit(charset.All()), nil
		}
		return p.lit(charset.NotNewline()), nil
	case '\\':
		cls, err := p.parseEscape()
		if err != nil {
			return nil, err
		}
		return p.lit(cls), nil
	case '*', '+', '?':
		return nil, p.errorf("quantifier %q with nothing to repeat", b)
	case '^':
		return nil, p.errorf("^ anchor only supported at pattern start")
	default:
		p.next()
		return p.lit(charset.Single(b)), nil
	}
}

func (p *parser) lit(cls charset.Set) *node {
	if p.flags&CaseInsensitive != 0 {
		cls = cls.CaseFold()
	}
	return &node{kind: kindLit, class: cls}
}

// parseEscape handles a backslash escape outside a class.
func (p *parser) parseEscape() (charset.Set, error) {
	p.next() // backslash
	if p.eof() {
		return charset.Set{}, p.errorf("trailing backslash")
	}
	b := p.next()
	switch b {
	case 'd':
		return charset.Digits(), nil
	case 'D':
		return charset.Digits().Negate(), nil
	case 'w':
		return charset.Word(), nil
	case 'W':
		return charset.Word().Negate(), nil
	case 's':
		return charset.Space(), nil
	case 'S':
		return charset.Space().Negate(), nil
	case 'n':
		return charset.Single('\n'), nil
	case 'r':
		return charset.Single('\r'), nil
	case 't':
		return charset.Single('\t'), nil
	case 'f':
		return charset.Single('\f'), nil
	case 'v':
		return charset.Single('\v'), nil
	case 'a':
		return charset.Single(7), nil
	case 'e':
		return charset.Single(27), nil
	case '0':
		return charset.Single(0), nil
	case 'x':
		return p.parseHexEscape()
	case '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return charset.Set{}, p.errorf("back-references are not supported")
	case 'b', 'B', 'A', 'Z', 'z', 'G':
		return charset.Set{}, p.errorf("assertion \\%c is not supported", b)
	default:
		return charset.Single(b), nil
	}
}

func (p *parser) parseHexEscape() (charset.Set, error) {
	if p.pos+2 > len(p.pat) {
		return charset.Set{}, p.errorf("truncated \\x escape")
	}
	v, err := strconv.ParseUint(p.pat[p.pos:p.pos+2], 16, 8)
	if err != nil {
		return charset.Set{}, p.errorf("bad \\x escape")
	}
	p.pos += 2
	return charset.Single(byte(v)), nil
}

// parseClass parses a bracket expression starting at '['.
func (p *parser) parseClass() (charset.Set, error) {
	p.next() // '['
	var cls charset.Set
	negate := p.accept('^')
	first := true
	for {
		if p.eof() {
			return cls, p.errorf("missing ]")
		}
		if p.peek() == ']' && !first {
			p.next()
			break
		}
		first = false
		var lo charset.Set
		var loByte byte
		isByte := false
		if p.peek() == '\\' {
			var err error
			lo, err = p.parseEscape()
			if err != nil {
				return cls, err
			}
			if lo.Count() == 1 {
				loByte, isByte = lo.Bytes()[0], true
			}
		} else {
			loByte, isByte = p.next(), true
			lo = charset.Single(loByte)
		}
		// Range?
		if isByte && !p.eof() && p.peek() == '-' && p.pos+1 < len(p.pat) && p.pat[p.pos+1] != ']' {
			p.next() // '-'
			var hiByte byte
			if p.peek() == '\\' {
				hi, err := p.parseEscape()
				if err != nil {
					return cls, err
				}
				if hi.Count() != 1 {
					return cls, p.errorf("class range with multi-char escape")
				}
				hiByte = hi.Bytes()[0]
			} else {
				hiByte = p.next()
			}
			if hiByte < loByte {
				return cls, p.errorf("inverted class range %c-%c", loByte, hiByte)
			}
			cls = cls.Union(charset.Range(loByte, hiByte))
			continue
		}
		cls = cls.Union(lo)
	}
	if negate {
		cls = cls.Negate()
	}
	if p.flags&CaseInsensitive != 0 {
		cls = cls.CaseFold()
	}
	return cls, nil
}

// ParsePCRE splits a /pattern/flags form (the shape Snort and ClamAV rules
// carry) into the raw pattern and Flags. Unknown flag letters are returned
// so callers can apply rule-level semantics (e.g. Snort's R/U modifiers).
func ParsePCRE(s string) (pattern string, flags Flags, extra string, err error) {
	if len(s) < 2 || s[0] != '/' {
		return "", 0, "", fmt.Errorf("regex: not a /pattern/flags form: %q", s)
	}
	end := -1
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '/' {
			end = i
			break
		}
	}
	if end <= 0 {
		return "", 0, "", fmt.Errorf("regex: unterminated /pattern/: %q", s)
	}
	pattern = s[1:end]
	for _, f := range s[end+1:] {
		switch f {
		case 'i':
			flags |= CaseInsensitive
		case 's':
			flags |= DotAll
		case 'm', 'x':
			// multiline/extended: accepted and ignored (no ^$ interior
			// anchors, no literal whitespace stripping needed for the
			// generated rulesets).
		default:
			extra += string(f)
		}
	}
	return pattern, flags, extra, nil
}
