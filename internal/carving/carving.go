// Package carving implements the File Carving benchmark: recognizing file
// headers/footers and forensic metadata in raw byte streams (recovering
// files from corrupted filesystems). Simple carvers use short exact magic
// strings and drown in false positives; this benchmark encodes *complex*
// header structure — including sub-byte and byte-boundary-crossing
// bit-fields like the MS-DOS timestamp in a PKZip local-file header —
// using bit-level automata that are then 8-strided to ordinary byte
// automata (Section IX-B of the paper).
//
// The benchmark's nine patterns: zip local-file header (with exact
// seconds/hours/day/month bit-field ranges), zip end-of-central-directory
// footer, MPEG-2 sequence header (12-bit width/height ranges crossing
// byte boundaries), MPEG-2 GOP header, MP4 ftyp box, JPEG SOI, PNG
// signature, e-mail addresses, and US social-security numbers.
package carving

import (
	"fmt"

	"automatazoo/internal/automata"
	"automatazoo/internal/bitnfa"
	"automatazoo/internal/randx"
	"automatazoo/internal/regex"
)

// Pattern identifiers (report codes).
const (
	ZipHeader = iota
	ZipFooter
	Mpeg2Seq
	Mpeg2GOP
	MP4Ftyp
	JPEG
	PNG
	Email
	SSN
	NumPatterns
)

// Names maps pattern codes to human-readable names.
var Names = [NumPatterns]string{
	"zip-local-header", "zip-eocd-footer", "mpeg2-sequence", "mpeg2-gop",
	"mp4-ftyp", "jpeg-soi", "png-signature", "email", "ssn",
}

// buildZipHeader constructs the bit-level PKZip local-file-header
// automaton: magic PK\x03\x04, version (2 bytes, any), flags (2 bytes,
// any), compression method ∈ {stored=0, deflate=8} little-endian, and the
// MS-DOS mod-time and mod-date with exact bit-field ranges — seconds/2 ≤
// 29 and hours ≤ 23 within their bytes, day ∈ [1,31], and the month field,
// whose 4 bits straddle the two date bytes, constrained to [1,12] by
// branching on its low three bits.
func buildZipHeader() (*bitnfa.Automaton, error) {
	a := bitnfa.New()
	tail := a.AppendByte(bitnfa.NoTail, 'P', 0xFF, true)
	tail = a.AppendByte(tail, 'K', 0xFF, false)
	tail = a.AppendByte(tail, 0x03, 0xFF, false)
	tail = a.AppendByte(tail, 0x04, 0xFF, false)
	tail = a.AppendByte(tail, 0, 0x00, false) // version (2 bytes, any)
	tail = a.AppendByte(tail, 0, 0x00, false)
	tail = a.AppendByte(tail, 0, 0x00, false) // general-purpose flags
	tail = a.AppendByte(tail, 0, 0x00, false)
	tail = a.AppendByte(tail, 0x00, 0xF7, false) // compression: 0x00 or 0x08
	tail = a.AppendByte(tail, 0x00, 0xFF, false)
	// Mod-time, little-endian: byte0 = min[2:0] sec[4:0], byte1 =
	// hour[4:0] min[5:3].
	minLow, err := a.AppendAnyBits([]bitnfa.StateID{tail}, 3) // minute low bits: free
	if err != nil {
		return nil, err
	}
	secTails, err := a.AppendUintRange(minLow, 5, 0, 29) // seconds/2 ∈ [0,29]
	if err != nil {
		return nil, err
	}
	var hourTails []bitnfa.StateID
	for _, t := range secTails {
		ts, err := a.AppendUintRange(t, 5, 0, 23) // hours ∈ [0,23]
		if err != nil {
			return nil, err
		}
		hourTails = append(hourTails, ts...)
	}
	// Minute high bits: free — and a join point for the hour tails.
	timeTail, err := a.AppendAnyBits(hourTails, 3)
	if err != nil {
		return nil, err
	}
	// Mod-date, little-endian: byte0 = month[2:0] day[4:0], byte1 =
	// year[6:0] month[3]. month = m3<<3 | m[2:0] must lie in [1,12]:
	//   m[2:0] ∈ [1,4] → m3 free; m[2:0] ∈ [5,7] → m3 = 0; m[2:0] = 0 → m3 = 1.
	type branch struct {
		lo, hi     uint64
		m3lo, m3hi uint64
	}
	branches := []branch{
		{1, 4, 0, 1},
		{5, 7, 0, 0},
		{0, 0, 1, 1},
	}
	var finals []bitnfa.StateID
	for _, br := range branches {
		mlow, err := a.AppendUintRange(timeTail, 3, br.lo, br.hi)
		if err != nil {
			return nil, err
		}
		var dayTails []bitnfa.StateID
		for _, t2 := range mlow {
			days, err := a.AppendUintRange(t2, 5, 1, 31) // day ∈ [1,31]
			if err != nil {
				return nil, err
			}
			dayTails = append(dayTails, days...)
		}
		yearTail, err := a.AppendAnyBits(dayTails, 7) // year: free, joins
		if err != nil {
			return nil, err
		}
		m3s, err := a.AppendUintRange(yearTail, 1, br.m3lo, br.m3hi)
		if err != nil {
			return nil, err
		}
		finals = append(finals, m3s...)
	}
	for _, f := range finals {
		a.SetReport(f, ZipHeader)
	}
	return a, nil
}

// buildMpeg2Seq constructs the MPEG-2 sequence-header automaton: start
// code 00 00 01 B3 followed by 12-bit horizontal and vertical sizes, each
// constrained to [64, 2048] — fields that cross byte boundaries and cannot
// be written as byte regexes.
func buildMpeg2Seq() (*bitnfa.Automaton, error) {
	a := bitnfa.New()
	tail := a.AppendByte(bitnfa.NoTail, 0x00, 0xFF, true)
	tail = a.AppendByte(tail, 0x00, 0xFF, false)
	tail = a.AppendByte(tail, 0x01, 0xFF, false)
	tail = a.AppendByte(tail, 0xB3, 0xFF, false)
	widths, err := a.AppendUintRange(tail, 12, 64, 2048)
	if err != nil {
		return nil, err
	}
	var finals []bitnfa.StateID
	for _, t := range widths {
		hs, err := a.AppendUintRange(t, 12, 64, 2048)
		if err != nil {
			return nil, err
		}
		finals = append(finals, hs...)
	}
	for _, f := range finals {
		a.SetReport(f, Mpeg2Seq)
	}
	return a, nil
}

// regexPatterns are the byte-level patterns of the benchmark.
var regexPatterns = map[int]struct {
	pattern string
	flags   regex.Flags
}{
	ZipFooter: {`PK\x05\x06`, 0},
	Mpeg2GOP:  {`\x00\x00\x01\xb8`, regex.DotAll},
	MP4Ftyp:   {`ftyp(isom|mp42|avc1|M4V )`, 0},
	JPEG:      {`\xff\xd8\xff[\xe0-\xef]`, regex.DotAll},
	PNG:       {`\x89PNG\r\n\x1a\n`, regex.DotAll},
	Email:     {`[a-z0-9._]{1,24}@[a-z0-9]{1,16}\.(com|net|org|edu)`, 0},
	SSN:       {`[0-8][0-9]{2}-[0-9]{2}-[0-9]{4}`, 0},
}

// BuildTagged assembles the full nine-pattern benchmark automaton; pattern
// i reports with code i. It reports each pattern's builder state range to
// tag (when non-nil), so a cost-attribution provenance map (internal/attr)
// can name states by the Names entries.
func BuildTagged(tag func(name string, lo, hi int)) (*automata.Automaton, error) {
	b := automata.NewBuilder()
	zip, err := buildZipHeader()
	if err != nil {
		return nil, err
	}
	zipByte, err := zip.Stride8()
	if err != nil {
		return nil, fmt.Errorf("carving: stride zip: %w", err)
	}
	lo := b.NumStates()
	b.Merge(zipByte, 0)
	if tag != nil {
		tag(Names[ZipHeader], lo, b.NumStates())
	}
	mpeg, err := buildMpeg2Seq()
	if err != nil {
		return nil, err
	}
	mpegByte, err := mpeg.Stride8()
	if err != nil {
		return nil, fmt.Errorf("carving: stride mpeg2: %w", err)
	}
	lo = b.NumStates()
	b.Merge(mpegByte, 0)
	if tag != nil {
		tag(Names[Mpeg2Seq], lo, b.NumStates())
	}
	// Iterate in code order: map range order would vary state numbering
	// (and thus component order) run to run.
	for code := 0; code < NumPatterns; code++ {
		p, ok := regexPatterns[code]
		if !ok {
			continue
		}
		parsed, err := regex.Parse(p.pattern, p.flags)
		if err != nil {
			return nil, fmt.Errorf("carving: %s: %w", Names[code], err)
		}
		lo = b.NumStates()
		if _, err := regex.CompileInto(b, parsed, int32(code)); err != nil {
			return nil, fmt.Errorf("carving: %s: %w", Names[code], err)
		}
		if tag != nil {
			tag(Names[code], lo, b.NumStates())
		}
	}
	return b.Build()
}

// DOSTime packs (hour, minute, second) into the little-endian MS-DOS time
// bytes.
func DOSTime(hour, min, sec int) [2]byte {
	v := uint16(hour)<<11 | uint16(min)<<5 | uint16(sec/2)
	return [2]byte{byte(v), byte(v >> 8)}
}

// DOSDate packs (year offset from 1980, month, day) into the little-endian
// MS-DOS date bytes.
func DOSDate(year, month, day int) [2]byte {
	v := uint16(year)<<9 | uint16(month)<<5 | uint16(day)
	return [2]byte{byte(v), byte(v >> 8)}
}

// ZipHeaderBytes materializes a local-file header with the given
// timestamp fields (valid or not — tests use invalid ones to check the
// bit-field constraints reject them).
func ZipHeaderBytes(hour, min, sec, year, month, day int) []byte {
	out := []byte{'P', 'K', 3, 4, 20, 0, 0, 0, 8, 0}
	t := DOSTime(hour, min, sec)
	d := DOSDate(year, month, day)
	return append(out, t[0], t[1], d[0], d[1])
}

// Mpeg2SeqBytes materializes a sequence header with the given frame size.
func Mpeg2SeqBytes(width, height int) []byte {
	return []byte{0, 0, 1, 0xB3,
		byte(width >> 4), byte(width<<4 | height>>8), byte(height)}
}

// Input synthesizes a multimedia-flavoured stream of n bytes with valid
// instances of every pattern planted (and decoys with out-of-range
// bit-fields that must not match).
func Input(n int, seed uint64) []byte {
	rng := randx.New(seed ^ 0xca54)
	out := rng.Bytes(n)
	plant := func(frag []byte) {
		if len(frag) < n {
			copy(out[rng.Intn(n-len(frag)):], frag)
		}
	}
	for i := 0; i < 4; i++ {
		plant(ZipHeaderBytes(9+i, 30, 24, 44, 7, 5))
		plant(Mpeg2SeqBytes(640, 480))
		plant([]byte("PK\x05\x06"))
		plant([]byte{0, 0, 1, 0xB8})
		plant([]byte("ftypisom"))
		plant([]byte{0xFF, 0xD8, 0xFF, 0xE0})
		plant([]byte("\x89PNG\r\n\x1a\n"))
		plant([]byte(fmt.Sprintf("contact user%d@example.com now", i)))
		plant([]byte(fmt.Sprintf(" ssn %03d-%02d-%04d ", 100+i, 10+i, 1000+i)))
		// Decoys: hour 31 and month 15 are invalid; width 16 is out of
		// range.
		plant(ZipHeaderBytes(31, 0, 0, 44, 15, 5))
		plant(Mpeg2SeqBytes(16, 16))
	}
	return out
}
