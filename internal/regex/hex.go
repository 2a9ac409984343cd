package regex

import (
	"strconv"
	"strings"
)

// The signature front-ends (ClamAV, YARA) rewrite hex bodies into this
// package's syntax once per pattern at set-up. These writers emit the
// atoms with strings.Builder and strconv instead of fmt.

const hexDigits = "0123456789abcdef"

// WriteHexPair writes the atom for one signature hex pair: "XY" becomes
// \xXY, "??" any byte, "?Y" the 16-byte class of high nibbles over Y and
// "X?" the range [\xX0-\xXf]. Digits are written in lower case. It writes
// nothing and returns false unless hi, lo is such a pair.
func WriteHexPair(sb *strings.Builder, hi, lo byte) bool {
	hv, hok := nibble(hi)
	lv, lok := nibble(lo)
	switch {
	case hi == '?' && lo == '?':
		sb.WriteByte('.')
	case hi == '?' && lok:
		sb.WriteByte('[')
		for h := byte(0); h < 16; h++ {
			writeHexByte(sb, h<<4|lv)
		}
		sb.WriteByte(']')
	case hok && lo == '?':
		sb.WriteByte('[')
		writeHexByte(sb, hv<<4)
		sb.WriteByte('-')
		writeHexByte(sb, hv<<4|0x0f)
		sb.WriteByte(']')
	case hok && lok:
		writeHexByte(sb, hv<<4|lv)
	default:
		return false
	}
	return true
}

// WriteGap writes a gap of lo to hi arbitrary bytes, at least lo when hi
// is negative.
func WriteGap(sb *strings.Builder, lo, hi int) {
	sb.WriteString(".{")
	sb.WriteString(strconv.Itoa(lo))
	sb.WriteByte(',')
	if hi >= 0 {
		sb.WriteString(strconv.Itoa(hi))
	}
	sb.WriteByte('}')
}

func writeHexByte(sb *strings.Builder, v byte) {
	sb.WriteString(`\x`)
	sb.WriteByte(hexDigits[v>>4])
	sb.WriteByte(hexDigits[v&0x0f])
}

// nibble is the value of hex digit c.
func nibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
