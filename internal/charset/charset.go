// Package charset implements 256-bit character classes over the byte
// alphabet. A Set is the match condition carried by every state of a
// homogeneous automaton (an ANML STE's "symbol set"): the state matches an
// input symbol iff the symbol's bit is set.
//
// Sets are small value types (four machine words) and are compared, hashed,
// and interned by value. The package also parses the bracket-expression
// syntax used by the regex compiler and by ANML symbol-set strings.
package charset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a 256-bit bitmap over byte values. The zero value matches nothing.
type Set [4]uint64

// All returns the set matching every byte value (the ANML '*' symbol set).
func All() Set {
	return Set{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// Single returns the set matching exactly b.
func Single(b byte) Set {
	var s Set
	s.Add(b)
	return s
}

// Range returns the set matching every byte in [lo, hi]. If lo > hi the
// result is empty.
func Range(lo, hi byte) Set {
	var s Set
	for c := int(lo); c <= int(hi); c++ {
		s.Add(byte(c))
	}
	return s
}

// Of returns the set matching exactly the given bytes.
func Of(bs ...byte) Set {
	var s Set
	for _, b := range bs {
		s.Add(b)
	}
	return s
}

// FromString returns the set matching each byte of str.
func FromString(str string) Set {
	var s Set
	for i := 0; i < len(str); i++ {
		s.Add(str[i])
	}
	return s
}

// Add sets the bit for b.
func (s *Set) Add(b byte) { s[b>>6] |= 1 << (b & 63) }

// Contains reports whether the set matches b.
func (s Set) Contains(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }

// IsEmpty reports whether the set matches no symbol.
func (s Set) IsEmpty() bool { return s == Set{} }

// IsAll reports whether the set matches every symbol.
func (s Set) IsAll() bool { return s == All() }

// Count returns the number of symbols matched.
func (s Set) Count() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) +
		bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	return Set{s[0] | t[0], s[1] | t[1], s[2] | t[2], s[3] | t[3]}
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	return Set{s[0] & t[0], s[1] & t[1], s[2] & t[2], s[3] & t[3]}
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set {
	return Set{s[0] &^ t[0], s[1] &^ t[1], s[2] &^ t[2], s[3] &^ t[3]}
}

// Negate returns the complement of s.
func (s Set) Negate() Set {
	return Set{^s[0], ^s[1], ^s[2], ^s[3]}
}

// Bytes returns the matched symbols in ascending order.
func (s Set) Bytes() []byte {
	out := make([]byte, 0, s.Count())
	for w := 0; w < 4; w++ {
		word := s[w]
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			out = append(out, byte(w<<6|bit))
			word &= word - 1
		}
	}
	return out
}

// CaseFold adds, for every matched ASCII letter, the letter of the opposite
// case, returning the widened set.
func (s Set) CaseFold() Set {
	out := s
	for c := byte('a'); c <= 'z'; c++ {
		if s.Contains(c) {
			out.Add(c - 'a' + 'A')
		}
	}
	for c := byte('A'); c <= 'Z'; c++ {
		if s.Contains(c) {
			out.Add(c - 'A' + 'a')
		}
	}
	return out
}

// String renders the set in compact bracket-expression form, e.g. "[a-c f]".
// The universal set renders as "*", the empty set as "[]", and singletons as
// a bare escaped byte.
func (s Set) String() string {
	if s.IsAll() {
		return "*"
	}
	if s.IsEmpty() {
		return "[]"
	}
	bs := s.Bytes()
	if len(bs) == 1 {
		return escapeByte(bs[0])
	}
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < len(bs); {
		j := i
		for j+1 < len(bs) && bs[j+1] == bs[j]+1 {
			j++
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch j - i {
		case 0:
			sb.WriteString(escapeByte(bs[i]))
		case 1:
			sb.WriteString(escapeByte(bs[i]))
			sb.WriteByte(' ')
			sb.WriteString(escapeByte(bs[j]))
		default:
			sb.WriteString(escapeByte(bs[i]))
			sb.WriteByte('-')
			sb.WriteString(escapeByte(bs[j]))
		}
		i = j + 1
	}
	sb.WriteByte(']')
	return sb.String()
}

func escapeByte(b byte) string {
	if b >= 0x21 && b <= 0x7e && b != '[' && b != ']' && b != '-' && b != '\\' {
		return string(b)
	}
	return fmt.Sprintf("\\x%02x", b)
}

// Common named classes used across the suite's pattern languages.
var (
	digits     = Range('0', '9')
	wordChars  = Range('a', 'z').Union(Range('A', 'Z')).Union(Range('0', '9')).Union(Single('_'))
	spaceChars = Of(' ', '\t', '\n', '\v', '\f', '\r')
)

// Digits returns the PCRE \d class.
func Digits() Set { return digits }

// Word returns the PCRE \w class.
func Word() Set { return wordChars }

// Space returns the PCRE \s class.
func Space() Set { return spaceChars }

// NotNewline returns the PCRE '.' class without the s (dotall) flag.
func NotNewline() Set { return All().Minus(Single('\n')) }

// Classes partitions the bytes into the coarsest classes no set yielded by
// each splits, numbered in order of their smallest byte: class[b] is byte
// b's class, reps[k] class k's smallest byte. yield returns false once all
// 256 bytes stand apart. Each set (or its complement, when smaller) splits
// every part holding one of its bytes into the bytes inside and outside it.
func Classes(each func(yield func(Set) bool)) (class [256]uint16, reps []byte) {
	parts := []Set{All()}
	var partOf [256]uint16 // byte → part
	each(func(cs Set) bool {
		if cs.Count() > 128 {
			cs = cs.Negate()
		}
		eachByte(cs, func(b int) {
			k := partOf[b]
			in := parts[k].Intersect(cs)
			if in == parts[k] {
				return
			}
			parts[k] = parts[k].Minus(cs)
			parts = append(parts, in)
			eachByte(in, func(b int) { partOf[b] = uint16(len(parts) - 1) })
		})
		return len(parts) < 256
	})
	number := make([]uint16, len(parts)) // class + 1, 0 = not yet numbered
	for b := 0; b < 256; b++ {
		k := partOf[b]
		if number[k] == 0 {
			reps = append(reps, byte(b))
			number[k] = uint16(len(reps))
		}
		class[b] = number[k] - 1
	}
	return class, reps
}

// eachByte calls fn for every byte of s, ascending.
func eachByte(s Set, fn func(b int)) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 | bits.TrailingZeros64(word))
		}
	}
}
