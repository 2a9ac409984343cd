// Package clamav implements the virus-detection benchmark. ClamAV's body
// signatures are hexadecimal strings with wildcards; this package parses
// that signature language, converts signatures to the suite's PCRE subset
// (the paper: "patterns are converted to regular expressions using a tool
// supplied with the benchmark and then compiled to automata"), generates a
// paper-scale synthetic signature database, and builds a disk-image input
// with embedded virus bodies that trigger known signatures.
//
// Supported signature syntax (the ClamAV .ndb body format):
//
//	aabbcc        literal bytes
//	??            full-byte wildcard
//	a? / ?a       nibble wildcards
//	*             unbounded gap
//	{n-m}         bounded gap ({n} exact, {-m} up to m, {n-} at least n)
//	(aa|bb)       alternation
package clamav

import (
	"fmt"
	"strconv"
	"strings"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/regex"
)

// Signature is one database entry.
type Signature struct {
	Name string
	Hex  string
}

// ToRegex converts a hex signature body into the suite's PCRE subset
// (matched with DotAll, since virus bodies are binary).
func ToRegex(hex string) (string, error) {
	var sb strings.Builder
	i := 0
	n := len(hex)
	for i < n {
		switch c := hex[i]; c {
		case '*':
			sb.WriteString(".*")
			i++
		case '{':
			end := strings.IndexByte(hex[i:], '}')
			if end < 0 {
				return "", fmt.Errorf("clamav: unterminated gap in %q", hex)
			}
			spec := hex[i+1 : i+end]
			lo, hi, err := parseGap(spec)
			if err != nil {
				return "", err
			}
			regex.WriteGap(&sb, lo, hi)
			i += end + 1
		case '(':
			sb.WriteByte('(')
			i++
		case ')':
			sb.WriteByte(')')
			i++
		case '|':
			sb.WriteByte('|')
			i++
		case ' ':
			i++
		default:
			if i+1 >= n {
				return "", fmt.Errorf("clamav: dangling nibble in %q", hex)
			}
			if !regex.WriteHexPair(&sb, hex[i], hex[i+1]) {
				return "", fmt.Errorf("clamav: bad hex pair %q in %q", hex[i:i+2], hex)
			}
			i += 2
		}
	}
	return sb.String(), nil
}

func parseGap(spec string) (lo, hi int, err error) {
	if !strings.Contains(spec, "-") {
		v, err := strconv.Atoi(spec)
		if err != nil {
			return 0, 0, fmt.Errorf("clamav: bad gap {%s}", spec)
		}
		return v, v, nil
	}
	parts := strings.SplitN(spec, "-", 2)
	lo = 0
	hi = -1
	if parts[0] != "" {
		if lo, err = strconv.Atoi(parts[0]); err != nil {
			return 0, 0, fmt.Errorf("clamav: bad gap {%s}", spec)
		}
	}
	if parts[1] != "" {
		if hi, err = strconv.Atoi(parts[1]); err != nil {
			return 0, 0, fmt.Errorf("clamav: bad gap {%s}", spec)
		}
	}
	if hi >= 0 && lo > hi {
		return 0, 0, fmt.Errorf("clamav: inverted gap {%s}", spec)
	}
	return lo, hi, nil
}

// Generate synthesizes a signature database of n entries: literal hex
// bodies of roughly the paper's mean length (71 bytes/subgraph) with a
// sprinkling of wildcards, gaps, and alternations matching the ClamAV
// grammar.
func Generate(n int, seed uint64) []Signature {
	rng := randx.New(seed)
	sigs := make([]Signature, n)
	const hexDigits = "0123456789abcdef"
	emitBytes := func(sb *strings.Builder, k int) {
		for i := 0; i < k; i++ {
			sb.WriteByte(hexDigits[rng.Intn(16)])
			sb.WriteByte(hexDigits[rng.Intn(16)])
		}
	}
	for i := range sigs {
		var sb strings.Builder
		emitBytes(&sb, 26+rng.Intn(24))
		switch rng.Intn(5) {
		case 0:
			sb.WriteString("??")
			emitBytes(&sb, 22+rng.Intn(18))
		case 1:
			fmt.Fprintf(&sb, "{%d-%d}", 2+rng.Intn(4), 8+rng.Intn(8))
			emitBytes(&sb, 22+rng.Intn(18))
		case 2:
			sb.WriteByte('(')
			emitBytes(&sb, 2)
			sb.WriteByte('|')
			emitBytes(&sb, 2)
			sb.WriteByte(')')
			emitBytes(&sb, 20+rng.Intn(14))
		case 3:
			sb.WriteByte(hexDigits[rng.Intn(16)])
			sb.WriteByte('?')
			emitBytes(&sb, 24+rng.Intn(14))
		default:
			emitBytes(&sb, 24+rng.Intn(18))
		}
		sigs[i] = Signature{Name: fmt.Sprintf("Synth.Virus-%d", i), Hex: sb.String()}
	}
	return sigs
}

// Compile builds the benchmark automaton; signature i reports with code i.
// Signatures the compiler rejects are skipped and counted.
func Compile(sigs []Signature) (*automata.Automaton, int, error) {
	return CompileTagged(sigs, nil)
}

// CompileTagged is Compile additionally reporting each successfully
// compiled signature's builder state range to tag (when non-nil), so a
// cost-attribution provenance map (internal/attr) can name states by
// signature.
func CompileTagged(sigs []Signature, tag func(name string, lo, hi int)) (*automata.Automaton, int, error) {
	b := automata.NewBuilder()
	skipped := 0
	for i, s := range sigs {
		lo := b.NumStates()
		pat, err := ToRegex(s.Hex)
		if err != nil {
			skipped++
			continue
		}
		parsed, err := regex.Parse(pat, regex.DotAll)
		if err != nil {
			skipped++
			continue
		}
		if _, err := regex.CompileInto(b, parsed, int32(i)); err != nil {
			skipped++
			continue
		}
		if tag != nil {
			tag(s.Name, lo, b.NumStates())
		}
	}
	a, err := b.Build()
	return a, skipped, err
}

// VirusBody materializes a byte string matching the signature (choosing
// minimal gaps, zero for wildcards, first alternatives).
func VirusBody(s Signature) ([]byte, error) {
	var out []byte
	hex := s.Hex
	i := 0
	val := func(c byte) int {
		switch {
		case c >= '0' && c <= '9':
			return int(c - '0')
		case c >= 'a' && c <= 'f':
			return int(c-'a') + 10
		default:
			return int(c-'A') + 10
		}
	}
	for i < len(hex) {
		switch hex[i] {
		case '*':
			i++
		case '{':
			end := strings.IndexByte(hex[i:], '}')
			lo, _, err := parseGap(hex[i+1 : i+end])
			if err != nil {
				return nil, err
			}
			for k := 0; k < lo; k++ {
				out = append(out, 0)
			}
			i += end + 1
		case '(':
			// take the first alternative: copy until '|' or ')'
			j := i + 1
			for j < len(hex) && hex[j] != '|' && hex[j] != ')' {
				j++
			}
			body, err := VirusBody(Signature{Hex: hex[i+1 : j]})
			if err != nil {
				return nil, err
			}
			out = append(out, body...)
			depth := 1
			for j < len(hex) && depth > 0 {
				switch hex[j] {
				case '(':
					depth++
				case ')':
					depth--
				}
				j++
			}
			i = j
		default:
			if i+1 >= len(hex) {
				return nil, fmt.Errorf("clamav: dangling nibble")
			}
			hiC, loC := hex[i], hex[i+1]
			var b byte
			switch {
			case hiC == '?' && loC == '?':
				b = 0x41
			case hiC == '?':
				b = byte(val(loC))
			case loC == '?':
				b = byte(val(hiC) << 4)
			default:
				b = byte(val(hiC)<<4 | val(loC))
			}
			out = append(out, b)
			i += 2
		}
	}
	return out, nil
}

// DiskImage builds the standard input: a synthetic disk image of n bytes —
// boot-sector-ish header, directory blocks, text and binary file contents —
// with the bodies of the given signatures embedded (the paper embeds two
// virus fragments from VirusSign).
func DiskImage(n int, embed []Signature, seed uint64) ([]byte, error) {
	rng := randx.New(seed ^ 0xd15c)
	img := make([]byte, n)
	// Filesystem-flavored structure: repeating 4 KiB blocks with magic
	// headers and mixed content.
	const block = 4096
	for off := 0; off < n; off += block {
		end := off + block
		if end > n {
			end = n
		}
		seg := img[off:end]
		copy(seg, []byte{0xEB, 0x3C, 0x90, 'S', 'Y', 'N', 'T', 'H'})
		switch rng.Intn(3) {
		case 0: // text block
			for i := 8; i < len(seg); i++ {
				seg[i] = byte(' ' + rng.Intn(95))
			}
		case 1: // binary block
			for i := 8; i < len(seg); i++ {
				seg[i] = rng.Byte()
			}
		default: // sparse block
			for i := 8; i < len(seg); i += 1 + rng.Intn(16) {
				seg[i] = rng.Byte()
			}
		}
	}
	for _, s := range embed {
		body, err := VirusBody(s)
		if err != nil {
			return nil, err
		}
		if len(body) >= n {
			return nil, fmt.Errorf("clamav: image too small for virus body")
		}
		pos := rng.Intn(n - len(body))
		copy(img[pos:], body)
	}
	return img, nil
}
