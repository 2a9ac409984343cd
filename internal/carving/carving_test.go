package carving

import (
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/sim"
)

func build(t *testing.T) *automata.Automaton {
	t.Helper()
	a, err := BuildTagged(nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// codesOn returns the set of pattern codes reporting on input.
func codesOn(a *automata.Automaton, input []byte) map[int32]bool {
	e := sim.New(a)
	out := map[int32]bool{}
	e.OnReport = func(r sim.Report) { out[r.Code] = true }
	e.Run(input)
	return out
}

func TestBuildShape(t *testing.T) {
	a := build(t)
	sizes, _ := a.Components()
	if len(sizes) != NumPatterns {
		t.Fatalf("subgraphs=%d want %d", len(sizes), NumPatterns)
	}
	// Striding yields characteristically dense graphs overall.
	if a.NumEdges() <= a.NumStates() {
		t.Fatalf("expected dense strided graph: states=%d edges=%d",
			a.NumStates(), a.NumEdges())
	}
}

func TestZipHeaderValidTimestamp(t *testing.T) {
	a := build(t)
	got := codesOn(a, ZipHeaderBytes(14, 45, 36, 44, 7, 5))
	if !got[ZipHeader] {
		t.Fatal("valid zip header not carved")
	}
}

func TestZipHeaderBitFieldRejection(t *testing.T) {
	a := build(t)
	cases := []struct {
		name                             string
		hour, min, sec, year, month, day int
	}{
		{"hour 24", 24, 0, 0, 44, 7, 5},
		{"seconds 60 (stored 30)", 12, 0, 60, 44, 7, 5},
		{"month 0", 12, 0, 0, 44, 0, 5},
		{"month 13", 12, 0, 0, 44, 13, 5},
		{"month 15", 12, 0, 0, 44, 15, 5},
		{"day 0", 12, 0, 0, 44, 7, 0},
	}
	for _, c := range cases {
		got := codesOn(a, ZipHeaderBytes(c.hour, c.min, c.sec, c.year, c.month, c.day))
		if got[ZipHeader] {
			t.Errorf("%s: invalid header carved", c.name)
		}
	}
}

func TestZipHeaderMonthBoundaryCases(t *testing.T) {
	a := build(t)
	// Months 1..12 valid; they exercise both m3 halves of the cross-byte
	// field.
	for m := 1; m <= 12; m++ {
		if got := codesOn(a, ZipHeaderBytes(1, 2, 4, 40, m, 15)); !got[ZipHeader] {
			t.Errorf("month %d should be valid", m)
		}
	}
	for _, m := range []int{0, 13, 14, 15} {
		if got := codesOn(a, ZipHeaderBytes(1, 2, 4, 40, m, 15)); got[ZipHeader] {
			t.Errorf("month %d should be invalid", m)
		}
	}
}

func TestZipCompressionMethod(t *testing.T) {
	a := build(t)
	hdr := ZipHeaderBytes(1, 2, 4, 40, 7, 15)
	hdr[8] = 0x00 // stored
	if !codesOn(a, hdr)[ZipHeader] {
		t.Error("stored method rejected")
	}
	hdr[8] = 0x08 // deflate
	if !codesOn(a, hdr)[ZipHeader] {
		t.Error("deflate method rejected")
	}
	hdr[8] = 0x05 // invalid method
	if codesOn(a, hdr)[ZipHeader] {
		t.Error("invalid method accepted")
	}
}

func TestMpeg2SizeRanges(t *testing.T) {
	a := build(t)
	if !codesOn(a, Mpeg2SeqBytes(640, 480))[Mpeg2Seq] {
		t.Error("640x480 rejected")
	}
	if !codesOn(a, Mpeg2SeqBytes(64, 2048))[Mpeg2Seq] {
		t.Error("boundary sizes rejected")
	}
	if codesOn(a, Mpeg2SeqBytes(63, 480))[Mpeg2Seq] {
		t.Error("width 63 accepted")
	}
	if codesOn(a, Mpeg2SeqBytes(2049, 480))[Mpeg2Seq] {
		t.Error("width 2049 accepted")
	}
	if codesOn(a, Mpeg2SeqBytes(640, 16))[Mpeg2Seq] {
		t.Error("height 16 accepted")
	}
}

func TestByteLevelPatterns(t *testing.T) {
	a := build(t)
	cases := []struct {
		code  int32
		input string
	}{
		{ZipFooter, "xxPK\x05\x06xx"},
		{Mpeg2GOP, "xx\x00\x00\x01\xb8xx"},
		{MP4Ftyp, "....ftypisom...."},
		{JPEG, "\xff\xd8\xff\xe1"},
		{PNG, "\x89PNG\r\n\x1a\n"},
		{Email, "mail me at bob.smith@example.com today"},
		{SSN, "ssn 123-45-6789 ok"},
	}
	for _, c := range cases {
		got := codesOn(a, []byte(c.input))
		if !got[c.code] {
			t.Errorf("%s not found in %q (got %v)", Names[c.code], c.input, got)
		}
	}
	// Negative cases.
	if codesOn(a, []byte("999-45-6789"))[SSN] {
		t.Error("SSN with area 9xx accepted")
	}
	if codesOn(a, []byte("ftypwxyz"))[MP4Ftyp] {
		t.Error("unknown brand accepted")
	}
}

func TestInputCarving(t *testing.T) {
	a := build(t)
	input := Input(1<<17, 3)
	got := codesOn(a, input)
	for code := 0; code < NumPatterns; code++ {
		if !got[int32(code)] {
			t.Errorf("planted %s not carved from input", Names[code])
		}
	}
}

func TestDOSPacking(t *testing.T) {
	tm := DOSTime(23, 59, 58)
	v := uint16(tm[0]) | uint16(tm[1])<<8
	if v>>11 != 23 || (v>>5)&0x3F != 59 || v&0x1F != 29 {
		t.Fatalf("DOSTime packing wrong: %04x", v)
	}
	d := DOSDate(44, 12, 31)
	dv := uint16(d[0]) | uint16(d[1])<<8
	if dv>>9 != 44 || (dv>>5)&0x0F != 12 || dv&0x1F != 31 {
		t.Fatalf("DOSDate packing wrong: %04x", dv)
	}
}
