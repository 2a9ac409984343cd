// Package yara implements the malware-pattern-search benchmarks. YARA
// rules describe malware with hexadecimal strings carrying nibble-level
// (4-bit) wildcards, bounded and unbounded jumps, and alternation groups,
// plus plain text strings and regexes. Nibble-level patterns are below
// the granularity regex engines accept, so — exactly as the paper's
// pipeline (Plyara → hex-to-regex conversion → pcre2mnrl) — this package
// generates rules, rewrites hex tokens into byte-level character classes,
// and compiles everything to automata. The "wide" variant
// (16-bit symbols, zero high bytes) is produced by the suite's widening
// transformation.
package yara

import (
	"fmt"
	"strconv"
	"strings"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/regex"
	"automatazoo/internal/transform"
)

// StringKind distinguishes the three YARA string forms.
type StringKind int

const (
	// KindText is a quoted literal.
	KindText StringKind = iota
	// KindHex is a { ... } hex string.
	KindHex
	// KindRegex is a /.../ pattern.
	KindRegex
)

// String is one $-string of a rule.
type String struct {
	Name  string
	Kind  StringKind
	Value string // literal text, hex body, or regex pattern
	Wide  bool   // the `wide` modifier
}

// Rule is one YARA rule.
type Rule struct {
	Name    string
	Strings []String
}

// HexToRegex rewrites a YARA hex-string body into the suite's regex
// subset. Tokens: hex pairs, nibble wildcards (?? / ?X / X?), jumps
// [n-m] / [n] / [-], and alternation groups ( a | b ).
func HexToRegex(hex string) (string, error) {
	var sb strings.Builder
	toks := strings.Fields(strings.NewReplacer("(", " ( ", ")", " ) ", "|", " | ").Replace(hex))
	for _, tok := range toks {
		switch {
		case tok == "(" || tok == ")" || tok == "|":
			sb.WriteString(tok)
		case strings.HasPrefix(tok, "["):
			if !strings.HasSuffix(tok, "]") {
				return "", fmt.Errorf("yara: bad jump %q", tok)
			}
			spec := tok[1 : len(tok)-1]
			if spec == "-" {
				sb.WriteString(".*")
				break
			}
			lo, hi, err := parseJump(spec)
			if err != nil {
				return "", err
			}
			regex.WriteGap(&sb, lo, hi)
		case len(tok) == 2:
			if !regex.WriteHexPair(&sb, tok[0], tok[1]) {
				return "", fmt.Errorf("yara: bad hex pair %s", tok)
			}
		default:
			return "", fmt.Errorf("yara: bad hex token %q", tok)
		}
	}
	return sb.String(), nil
}

func parseJump(spec string) (lo, hi int, err error) {
	if !strings.Contains(spec, "-") {
		v, err := strconv.Atoi(spec)
		if err != nil {
			return 0, 0, fmt.Errorf("yara: bad jump [%s]", spec)
		}
		return v, v, nil
	}
	a, b, _ := strings.Cut(spec, "-")
	lo, hi = 0, -1
	if a != "" {
		if lo, err = strconv.Atoi(a); err != nil {
			return 0, 0, fmt.Errorf("yara: bad jump [%s]", spec)
		}
	}
	if b != "" {
		if hi, err = strconv.Atoi(b); err != nil {
			return 0, 0, fmt.Errorf("yara: bad jump [%s]", spec)
		}
		if lo > hi {
			return 0, 0, fmt.Errorf("yara: inverted jump [%s]", spec)
		}
	}
	return lo, hi, nil
}

func nibbleVal(c byte) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), true
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10, true
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10, true
	}
	return 0, false
}

// stringPattern converts one YARA string to the regex subset.
func stringPattern(s String) (string, regex.Flags, error) {
	switch s.Kind {
	case KindText:
		var sb strings.Builder
		for i := 0; i < len(s.Value); i++ {
			c := s.Value[i]
			if strings.IndexByte(`.*+?()[]{}|\^$/`, c) >= 0 {
				sb.WriteByte('\\')
			}
			sb.WriteByte(c)
		}
		return sb.String(), 0, nil
	case KindHex:
		p, err := HexToRegex(s.Value)
		return p, regex.DotAll, err
	case KindRegex:
		return s.Value, regex.DotAll, nil
	}
	return "", 0, fmt.Errorf("yara: unknown string kind")
}

// Compile builds the benchmark automaton from rules; every string of rule
// i reports with code i. Wide strings are compiled standalone, widened
// with the suite transformation, and merged. Unsupported strings are
// skipped and counted.
func Compile(rules []Rule) (*automata.Automaton, int, error) {
	return CompileTagged(rules, nil)
}

// CompileTagged is Compile additionally reporting each rule's builder
// state ranges to tag (when non-nil) — one call per successfully compiled
// string, all under the rule's name, covering the widened form for wide
// strings — so a cost-attribution provenance map (internal/attr) can name
// states by rule.
func CompileTagged(rules []Rule, tag func(name string, lo, hi int)) (*automata.Automaton, int, error) {
	b := automata.NewBuilder()
	skipped := 0
	for i, r := range rules {
		for _, s := range r.Strings {
			lo := b.NumStates()
			pat, flags, err := stringPattern(s)
			if err != nil {
				skipped++
				continue
			}
			parsed, err := regex.Parse(pat, flags)
			if err != nil {
				skipped++
				continue
			}
			if !s.Wide {
				if _, err := regex.CompileInto(b, parsed, int32(i)); err != nil {
					skipped++
				} else if tag != nil {
					tag(r.Name, lo, b.NumStates())
				}
				continue
			}
			sb := automata.NewBuilder()
			if _, err := regex.CompileInto(sb, parsed, int32(i)); err != nil {
				skipped++
				continue
			}
			narrow, err := sb.Build()
			if err != nil {
				skipped++
				continue
			}
			wideA, err := transform.Widen(narrow)
			if err != nil {
				skipped++
				continue
			}
			b.Merge(wideA, 0)
			if tag != nil {
				tag(r.Name, lo, b.NumStates())
			}
		}
	}
	a, err := b.Build()
	return a, skipped, err
}

// GenConfig sizes the generated ruleset.
type GenConfig struct {
	Rules    int
	WideFrac float64 // fraction of rules whose strings carry `wide`
}

// Generate synthesizes a ruleset: hex strings with nibble wildcards,
// jumps, and alternations (the dominant population), plus text strings
// and simple regexes.
func Generate(cfg GenConfig, seed uint64) []Rule {
	rng := randx.New(seed)
	rules := make([]Rule, cfg.Rules)
	const hexd = "0123456789ABCDEF"
	emit := func(sb *strings.Builder, k int) {
		for i := 0; i < k; i++ {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteByte(hexd[rng.Intn(16)])
			sb.WriteByte(hexd[rng.Intn(16)])
		}
	}
	for i := range rules {
		wide := rng.Float64() < cfg.WideFrac
		var strs []String
		switch rng.Intn(5) {
		case 0: // text string
			w := make([]byte, 24+rng.Intn(30))
			for j := range w {
				w[j] = byte('a' + rng.Intn(26))
			}
			strs = append(strs, String{Name: "$t", Kind: KindText, Value: string(w), Wide: wide})
		case 1: // regex string
			strs = append(strs, String{Name: "$r", Kind: KindRegex,
				Value: fmt.Sprintf("\\x%02x\\x%02x[\\x40-\\x5f]{2,6}\\x%02x[\\x20-\\x7e]{4,12}\\x%02x\\x%02x",
					rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256)), Wide: wide})
		default: // hex string with wildcards / jumps / alternation
			var sb strings.Builder
			emit(&sb, 18+rng.Intn(16))
			switch rng.Intn(4) {
			case 0:
				sb.WriteString(" ?")
				sb.WriteByte(hexd[rng.Intn(16)])
				emit(&sb, 16+rng.Intn(12))
			case 1:
				fmt.Fprintf(&sb, " [%d-%d]", 2+rng.Intn(4), 8+rng.Intn(8))
				emit(&sb, 16+rng.Intn(12))
			case 2:
				sb.WriteString(" ( ")
				sb.WriteByte(hexd[rng.Intn(16)])
				sb.WriteByte(hexd[rng.Intn(16)])
				sb.WriteString(" | ")
				sb.WriteByte(hexd[rng.Intn(16)])
				sb.WriteByte(hexd[rng.Intn(16)])
				sb.WriteString(" ) ")
				emit(&sb, 14+rng.Intn(12))
			default:
				sb.WriteString(" ??")
				emit(&sb, 18+rng.Intn(12))
			}
			strs = append(strs, String{Name: "$h", Kind: KindHex, Value: sb.String(), Wide: wide})
		}
		rules[i] = Rule{Name: fmt.Sprintf("synth_mal_%d", i), Strings: strs}
	}
	return rules
}

// MalwareBody materializes bytes matching a rule's first string (minimal
// jumps, zeros for wildcards, first alternatives), widened if the string
// is wide.
func MalwareBody(r Rule) ([]byte, error) {
	if len(r.Strings) == 0 {
		return nil, fmt.Errorf("yara: rule has no strings")
	}
	s := r.Strings[0]
	var body []byte
	switch s.Kind {
	case KindText:
		body = []byte(s.Value)
	case KindHex:
		toks := strings.Fields(strings.NewReplacer("(", " ( ", ")", " ) ", "|", " | ").Replace(s.Value))
		depth := 0
		for _, tok := range toks {
			switch {
			case tok == "(":
				depth++
			case tok == ")":
				if depth > 0 {
					depth--
				}
			case tok == "|":
				// skip remaining alternatives: consume until group close
				depth = -depth // mark skipping
			case strings.HasPrefix(tok, "["):
				spec := strings.Trim(tok, "[]")
				if spec == "-" {
					continue
				}
				lo, _, err := parseJump(spec)
				if err != nil {
					return nil, err
				}
				for k := 0; k < lo; k++ {
					body = append(body, 0)
				}
			case len(tok) == 2 && depth >= 0:
				hv, _ := nibbleVal(tok[0])
				lv, _ := nibbleVal(tok[1])
				if tok[0] == '?' {
					hv = 0
				}
				if tok[1] == '?' {
					lv = 0
				}
				body = append(body, byte(hv<<4|lv))
			}
			if depth < 0 && tok == ")" {
				depth = 0
			}
		}
	case KindRegex:
		return nil, fmt.Errorf("yara: cannot materialize regex string")
	}
	if s.Wide {
		wide := make([]byte, 0, 2*len(body))
		for _, c := range body {
			wide = append(wide, c, 0)
		}
		body = wide
	}
	return body, nil
}

// Corpus synthesizes a malware-scan input of n bytes with the bodies of
// the given rules embedded.
func Corpus(n int, embed []Rule, seed uint64) ([]byte, error) {
	rng := randx.New(seed ^ 0x9a7a)
	out := rng.Bytes(n)
	for _, r := range embed {
		body, err := MalwareBody(r)
		if err != nil {
			continue // regex strings can't be materialized; skip
		}
		if len(body) >= n {
			continue
		}
		pos := rng.Intn(n - len(body))
		copy(out[pos:], body)
	}
	return out, nil
}
