package ckpt

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/guard"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// fullCheckpoint builds a checkpoint exercising every section kind.
func fullCheckpoint() *Checkpoint {
	reg := telemetry.NewRegistry()
	reg.Counter("ckpt.saves").Add(3)
	reg.Gauge("sim.frontier").Set(7)
	reg.Histogram("scan.chunk", []int64{10, 100}).Observe(42)
	snap := reg.Snapshot()
	st := sim.Stats{Symbols: 9000, Enabled: 120, Active: 80, CounterPulses: 4, Reports: 17}
	stitch := segment.Stitch{Segments: 4, Speculated: 3, Committed: 2, Replayed: 1, WarmupBytes: 96, ReplayBytes: 1024}
	return &Checkpoint{
		Meta: Meta{
			Command:  "run",
			Engine:   "nfa",
			Flags:    map[string]string{"bench": "Brill", "scale": "0.02"},
			Interval: 8192,
			Workers:  4,
			Segments: 4,
		},
		Sim: &sim.StreamState{
			Offset:   8192,
			Frontier: []automata.StateID{1, 5, 9},
			Counters: []sim.CounterSnapshot{{ID: 2, Value: 3, Latched: true}, {ID: 7, Value: 0, Latched: false}},
		},
		Cursor:  Cursor{Stream: 1, Offset: 8192, Reports: 17, Sim: &st, Stitch: &stitch},
		Metrics: &snap,
		Attr: &attr.Totals{
			Bytes:   []int64{100, 200},
			Work:    []int64{10, 20},
			Cache:   []int64{0, 0},
			Evict:   []int64{0, 0},
			Fall:    []int64{0, 0},
			Reports: []int64{3, 4, 0},
		},
		Budget: &guard.Budget{MaxInputBytes: 12345, MaxActiveSet: 99},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c := fullCheckpoint()
	data, err := c.EncodeBytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", c, got)
	}
	// Deterministic encoding: same contents, same bytes.
	data2, err := c.EncodeBytes()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encoding is not deterministic for identical contents")
	}
}

// A dfa-engine checkpoint is an ordinary one — the flattened frontier in
// the sim section, the cursor's statistics in Sim — and an image carrying
// the retired per-component dfa section (kind 3) fails to decode with an
// error instead of a panic.
func TestCodecRoundTripDFA(t *testing.T) {
	st := sim.Stats{Symbols: 5000, Reports: 3}
	c := &Checkpoint{
		Meta:   Meta{Command: "run", Engine: "dfa", Interval: 4096, Workers: 2, Segments: 3},
		Sim:    &sim.StreamState{Offset: 4096, Frontier: []automata.StateID{2, 3, 40}},
		Cursor: Cursor{Stream: 0, Offset: 4096, Reports: 3, Sim: &st},
	}
	data, err := c.EncodeBytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", c, got)
	}

	var old bytes.Buffer
	old.Write(data[:6])
	old.Write([]byte{3, 0}) // meta, cursor and the old dfa section
	if err := writeJSONSection(&old, secMeta, c.Meta); err != nil {
		t.Fatal(err)
	}
	writeSection(&old, 3, []byte{0, 16, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	if err := writeJSONSection(&old, secCursor, c.Cursor); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(old.Bytes()); err == nil || !strings.Contains(err.Error(), "unknown section kind 3") {
		t.Errorf("old dfa checkpoint: got %v, want an unknown-section error", err)
	}
}

// Every kind of damage must be detected, not decoded: truncation at any
// length, payload corruption (CRC), header corruption, a version from a
// different build, an unknown section, and trailing garbage.
func TestDecodeRejectsDamage(t *testing.T) {
	data, err := fullCheckpoint().EncodeBytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(data))
		}
	}
	corrupt := func(name string, mutate func(p []byte), want string) {
		p := append([]byte(nil), data...)
		mutate(p)
		_, err := Decode(p)
		if err == nil {
			t.Errorf("%s: decoded cleanly", name)
			return
		}
		if want != "" && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", name, err, want)
		}
	}
	corrupt("bad magic", func(p []byte) { p[0] ^= 0xff }, "magic")
	corrupt("future version", func(p []byte) { binary.LittleEndian.PutUint16(p[4:6], Version+1) }, "version")
	corrupt("flipped payload bit", func(p []byte) { p[20] ^= 0x01 }, "checksum")
	corrupt("flipped last byte", func(p []byte) { p[len(p)-1] ^= 0x80 }, "checksum")
	corrupt("section count low", func(p []byte) { p[6]-- }, "trailing")
	corrupt("section count high", func(p []byte) { p[6]++ }, "truncated")

	// Unknown section kind: framed correctly (CRC valid) but from a layout
	// this build does not know.
	var buf bytes.Buffer
	buf.Write(data[:6])
	var nsec [2]byte
	binary.LittleEndian.PutUint16(nsec[:], binary.LittleEndian.Uint16(data[6:8])+1)
	buf.Write(nsec[:])
	buf.Write(data[8:])
	writeSection(&buf, 99, []byte("mystery"))
	if _, err := Decode(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "unknown section") {
		t.Errorf("unknown section kind: got %v", err)
	}

	// Trailing bytes after the declared sections.
	if _, err := Decode(append(append([]byte(nil), data...), 0xde, 0xad)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes: got %v", err)
	}
}

func TestLoadGenerationFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	cur := fullCheckpoint()
	prev := fullCheckpoint()
	prev.Cursor.Offset = 4096

	write := func(p string, c *Checkpoint) {
		data, err := c.EncodeBytes()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	write(path, cur)
	write(path+PrevSuffix, prev)

	// Intact current generation wins.
	c, src, err := Load(path)
	if err != nil || src != path || c.Cursor.Offset != cur.Cursor.Offset {
		t.Fatalf("intact load: c=%v src=%q err=%v", c, src, err)
	}

	// Torn current generation (simulated kill mid-write without atomicio)
	// falls back to the previous one.
	data, _ := cur.EncodeBytes()
	if err := os.WriteFile(path, data[:len(data)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	c, src, err = Load(path)
	if err != nil || src != path+PrevSuffix || c.Cursor.Offset != prev.Cursor.Offset {
		t.Fatalf("torn-current load: c=%v src=%q err=%v", c, src, err)
	}

	// Missing current generation (kill between rotate and write) also
	// falls back.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, src, err = Load(path); err != nil || src != path+PrevSuffix {
		t.Fatalf("missing-current load: src=%q err=%v", src, err)
	}

	// Both generations damaged: a single error describing both.
	if err := os.WriteFile(path+PrevSuffix, []byte("AZCKgarbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err = Load(path); err == nil {
		t.Fatal("both-damaged load succeeded")
	}

	// Remove deletes both generations.
	write(path, cur)
	Remove(path)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("Remove left %s", path)
	}
	if _, err := os.Stat(path + PrevSuffix); !os.IsNotExist(err) {
		t.Errorf("Remove left %s", path+PrevSuffix)
	}
}

func TestAlignInterval(t *testing.T) {
	cases := [][2]int64{
		{0, ChunkAlign}, {1, ChunkAlign}, {ChunkAlign - 1, ChunkAlign},
		{ChunkAlign, ChunkAlign}, {ChunkAlign + 1, ChunkAlign},
		{10000, 8192}, {1 << 20, 1 << 20},
	}
	for _, c := range cases {
		if got := AlignInterval(c[0]); got != c[1] {
			t.Errorf("AlignInterval(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}
