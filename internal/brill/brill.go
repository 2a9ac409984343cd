// Package brill implements the rule-based part-of-speech-tagging
// benchmark. Brill tagging corrects an initial tag assignment by applying
// learned transformation rules ("change tag A to B when the previous tag
// is X and the current word is W"); locating rule application sites in a
// tagged token stream is the automata kernel (Zhou et al.; Sadredini et
// al. KDD'18, whose open-source rule generator the paper adopts at 5,000
// rules).
//
// The token stream encodes each token as one tag byte (0x80+tag, outside
// the word alphabet) followed by the lowercase word and a 0x1F separator.
// Each rule compiles to a short chain — context tag, a word-skip self
// loop, the target tag, and the trigger word — giving the near-uniform
// ~19-state subgraphs of Table I.
package brill

import (
	"fmt"
	"strings"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/regex"
)

// Tags is the benchmark's part-of-speech tag inventory (Penn-Treebank
// flavored).
var Tags = []string{
	"NN", "NNS", "NNP", "VB", "VBD", "VBG", "VBN", "VBZ", "VBP",
	"JJ", "JJR", "JJS", "RB", "RBR", "DT", "IN", "PRP", "PRP$",
	"CC", "CD", "MD", "TO", "WDT", "WP", "UH", "EX", "FW", "POS",
}

// Sep terminates each token in the encoded stream.
const Sep byte = 0x1F

// TagByte encodes tag index t as a stream byte.
func TagByte(t int) byte { return byte(0x80 + t) }

// Rule is one transformation rule: when the current token has FromTag,
// carries word Word, and the previous token has PrevTag, retag it to
// ToTag.
type Rule struct {
	ID      int
	PrevTag int
	FromTag int
	ToTag   int
	Word    string
}

// Pattern returns the rule's site-location pattern in the suite's regex
// subset: previous tag byte, skip that token's word, then the target tag
// and trigger word, closed by the separator.
func (r Rule) Pattern() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\\x%02x", TagByte(r.PrevTag))
	sb.WriteString("[a-z]*")
	fmt.Fprintf(&sb, "\\x%02x\\x%02x", Sep, TagByte(r.FromTag))
	sb.WriteString(r.Word)
	fmt.Fprintf(&sb, "\\x%02x", Sep)
	return sb.String()
}

// WordLen is the fixed trigger-word length; fixed length is what makes the
// benchmark's subgraphs near-uniform (Table I std-dev 0.02).
const WordLen = 12

// Generate learns-a-like ruleset of n rules over random trigger words.
func Generate(n int, seed uint64) []Rule {
	rng := randx.New(seed)
	rules := make([]Rule, n)
	for i := range rules {
		w := make([]byte, WordLen)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		from := rng.Intn(len(Tags))
		to := rng.Intn(len(Tags))
		for to == from {
			to = rng.Intn(len(Tags))
		}
		rules[i] = Rule{
			ID:      i,
			PrevTag: rng.Intn(len(Tags)),
			FromTag: from,
			ToTag:   to,
			Word:    string(w),
		}
	}
	return rules
}

// Compile builds the benchmark automaton; rule i reports with code i.
func Compile(rules []Rule) (*automata.Automaton, int, error) {
	return CompileTagged(rules, nil)
}

// CompileTagged is Compile additionally reporting each successfully
// compiled rule's builder state range to tag (when non-nil), so a cost-
// attribution provenance map (internal/attr) can name states by rule.
func CompileTagged(rules []Rule, tag func(name string, lo, hi int)) (*automata.Automaton, int, error) {
	b := automata.NewBuilder()
	skipped := 0
	for _, r := range rules {
		lo := b.NumStates()
		parsed, err := regex.Parse(r.Pattern(), 0)
		if err != nil {
			skipped++
			continue
		}
		if _, err := regex.CompileInto(b, parsed, int32(r.ID)); err != nil {
			skipped++
			continue
		}
		if tag != nil {
			tag(fmt.Sprintf("rule-%d", r.ID), lo, b.NumStates())
		}
	}
	a, err := b.Build()
	return a, skipped, err
}

// Token is one corpus token.
type Token struct {
	Word string
	Tag  int
}

// Encode renders tokens into the benchmark's byte stream.
func Encode(tokens []Token) []byte {
	var out []byte
	for _, t := range tokens {
		out = append(out, TagByte(t.Tag))
		out = append(out, t.Word...)
		out = append(out, Sep)
	}
	return out
}

// Corpus synthesizes a tagged corpus of n tokens, planting one application
// site for roughly every plantEvery tokens, cycling through the rules.
func Corpus(n int, rules []Rule, plantEvery int, seed uint64) []Token {
	rng := randx.New(seed ^ 0xb111)
	tokens := make([]Token, 0, n)
	randWord := func() string {
		w := make([]byte, 2+rng.Intn(9))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		return string(w)
	}
	next := 0
	for len(tokens) < n {
		if plantEvery > 0 && len(rules) > 0 && len(tokens)%plantEvery == 0 {
			r := rules[next%len(rules)]
			next++
			tokens = append(tokens,
				Token{Word: randWord(), Tag: r.PrevTag},
				Token{Word: r.Word, Tag: r.FromTag})
			continue
		}
		tokens = append(tokens, Token{Word: randWord(), Tag: rng.Intn(len(Tags))})
	}
	return tokens[:n]
}
