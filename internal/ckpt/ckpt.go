// Package ckpt makes long scans crash-safe: it defines the checkpoint of a
// run's full observable state — engine continuation (any Engine's
// CaptureState), emitted-report cursor, telemetry registry, attribution
// totals, and the guard budget remainder — its versioned, checksummed
// file format (Encode, Decode, Load), and the Saver that persists it. The
// scan driver (internal/scan) decides when to save and resumes from a
// loaded checkpoint, so a resumed run produces stdout, report manifests,
// and attribution output byte-identical to an uninterrupted one (the
// dfa engine's cold cache is the one exception; see scan.Result.Cache).
//
// Durability discipline:
//
//   - Every write is write-temp + fsync + rename (internal/atomicio), so
//     a crash leaves the previous complete checkpoint or none — never a
//     torn file that parses.
//   - Two generations are kept: the current file at <path> and the
//     previous at <path>.prev (rotated before each write). Load verifies
//     the header, version, and per-section CRC32s, and falls back to the
//     previous generation when the current one is missing, torn, or
//     corrupted.
//   - Transient write failures retry with capped exponential backoff;
//     persistent failure flips the saver into a sticky disabled state
//     with a warning — the scan itself continues, it just stops being
//     crash-safe (degradation, not death).
//
// Byte-identity rests on alignment: saves land only on the engines'
// absolute 4096-byte chunk grid (the interval is clamped to a multiple
// of the chunk size), so a resumed run's remaining chunk layout — and
// with it every statistic, registry delta, and report — is exactly the
// uninterrupted run's.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// Format constants. Version bumps on any breaking layout change; Load
// rejects mismatches (falling back to the previous generation, which a
// rolling upgrade may still be able to read).
const (
	Version = 1
	// ChunkAlign is the engines' cooperative chunk granularity; save
	// points exist only on this absolute grid, and the checkpoint
	// interval is clamped to a multiple of it.
	ChunkAlign = hooks.Chunk
	// PrevSuffix names the previous-generation file.
	PrevSuffix = ".prev"
	// DefaultInterval is the default bytes-between-saves pacing
	// (-checkpoint-interval): frequent enough that a crash loses at most
	// ~1 MiB of scanning, rare enough to be invisible in throughput.
	DefaultInterval = 1 << 20
)

var magic = [4]byte{'A', 'Z', 'C', 'K'}

// Section kinds. Kind 3 held the dfa engine's per-component frontiers
// before that engine captured a sim.StreamState like the others; Decode
// rejects it as unknown.
const (
	secMeta   = 1
	secSim    = 2 // sim.StreamState (every engine)
	secCursor = 4
	secMetric = 5 // telemetry.Snapshot
	secAttr   = 6 // attr.Totals
	secBudget = 7 // guard.Budget remainder
)

// Meta records how to rebuild the run: the originating command, engine
// kind, and the command-defined flag recipe (bench name, scale, seed,
// input length, ...) that reconstructs the automaton and input streams.
type Meta struct {
	Command  string            `json:"command"`
	Label    string            `json:"label,omitempty"`
	Engine   string            `json:"engine"` // "nfa" | "prefilter" | "dfa"
	Flags    map[string]string `json:"flags,omitempty"`
	Interval int64             `json:"interval"`
	Workers  int               `json:"workers"`
	Segments int               `json:"segments"`
}

// Cursor is the run's progress mark: which stream is in flight, the
// absolute offset of the next unscanned byte, and the cumulative
// statistics (and reports emitted) up to that point. Consumers replaying
// a crashed run's output keep exactly Reports reports from it — the
// at-least-once dedup line: everything after was re-emitted by the
// resumed run.
type Cursor struct {
	Stream  int             `json:"stream"`
	Offset  int64           `json:"offset"`
	Reports int64           `json:"reports"`
	Sim     *sim.Stats      `json:"sim,omitempty"`
	Stitch  *segment.Stitch `json:"stitch,omitempty"`
}

// Engine is what a checkpointed scan needs of its engine: the segment
// scanner's contract plus state capture. sim.Engine, prefilter.Engine and
// dfa.Engine all satisfy it.
type Engine interface {
	segment.Engine
	CaptureState() *sim.StreamState
}

// Checkpoint is one decoded checkpoint: everything a fresh process needs
// to continue the run. Sim is the in-flight stream's engine state, nil
// at a stream boundary.
type Checkpoint struct {
	Meta    Meta
	Sim     *sim.StreamState
	Cursor  Cursor
	Metrics *telemetry.Snapshot
	Attr    *attr.Totals
	Budget  *guard.Budget
}

// AlignInterval clamps a requested checkpoint interval to the save-point
// grid: at least one chunk, rounded down to a multiple of ChunkAlign.
func AlignInterval(n int64) int64 {
	if n < ChunkAlign {
		return ChunkAlign
	}
	return n - n%ChunkAlign
}

// Encode serializes the checkpoint: a fixed header (magic, version,
// section count) followed by CRC32-framed sections. Encoding is
// deterministic for fixed contents (JSON map keys sort, binary sections
// are canonical), so identical run states produce identical files.
func (c *Checkpoint) Encode(w io.Writer) error {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], Version)
	nsec := 2 // meta + cursor
	for _, present := range []bool{c.Sim != nil, c.Metrics != nil, c.Attr != nil, c.Budget != nil} {
		if present {
			nsec++
		}
	}
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(nsec))
	buf.Write(hdr[:])

	if err := writeJSONSection(&buf, secMeta, c.Meta); err != nil {
		return err
	}
	if c.Sim != nil {
		writeSection(&buf, secSim, encodeSimState(c.Sim))
	}
	if err := writeJSONSection(&buf, secCursor, c.Cursor); err != nil {
		return err
	}
	if c.Metrics != nil {
		if err := writeJSONSection(&buf, secMetric, c.Metrics); err != nil {
			return err
		}
	}
	if c.Attr != nil {
		if err := writeJSONSection(&buf, secAttr, c.Attr); err != nil {
			return err
		}
	}
	if c.Budget != nil {
		if err := writeJSONSection(&buf, secBudget, c.Budget); err != nil {
			return err
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// EncodeBytes renders the checkpoint to a buffer.
func (c *Checkpoint) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeJSONSection(buf *bytes.Buffer, kind byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: encode section %d: %w", kind, err)
	}
	writeSection(buf, kind, payload)
	return nil
}

func writeSection(buf *bytes.Buffer, kind byte, payload []byte) {
	var frame [9]byte
	frame[0] = kind
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[5:9], crc32.ChecksumIEEE(payload))
	buf.Write(frame[:])
	buf.Write(payload)
}

// encodeSimState: offset, frontier IDs, counter triples — all
// little-endian, lists length-prefixed. The snapshot's frontier and
// counters are already canonical (sorted), so encoding is deterministic.
func encodeSimState(s *sim.StreamState) []byte {
	var buf bytes.Buffer
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(s.Offset))
	buf.Write(b8[:])
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(s.Frontier)))
	buf.Write(b4[:])
	for _, id := range s.Frontier {
		binary.LittleEndian.PutUint32(b4[:], uint32(id))
		buf.Write(b4[:])
	}
	binary.LittleEndian.PutUint32(b4[:], uint32(len(s.Counters)))
	buf.Write(b4[:])
	for _, c := range s.Counters {
		binary.LittleEndian.PutUint32(b4[:], uint32(c.ID))
		buf.Write(b4[:])
		binary.LittleEndian.PutUint32(b4[:], c.Value)
		buf.Write(b4[:])
		if c.Latched {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

func decodeSimState(p []byte) (*sim.StreamState, error) {
	r := byteReader{p: p}
	s := &sim.StreamState{Offset: int64(r.u64())}
	n := r.u32()
	if r.err == nil && uint64(n)*4 > uint64(len(p)) {
		return nil, fmt.Errorf("ckpt: sim snapshot frontier length %d overruns section", n)
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		s.Frontier = append(s.Frontier, automata.StateID(r.u32()))
	}
	n = r.u32()
	if r.err == nil && uint64(n)*9 > uint64(len(p)) {
		return nil, fmt.Errorf("ckpt: sim snapshot counter length %d overruns section", n)
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		s.Counters = append(s.Counters, sim.CounterSnapshot{
			ID:      automata.StateID(r.u32()),
			Value:   r.u32(),
			Latched: r.u8() != 0,
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	if !r.done() {
		return nil, fmt.Errorf("ckpt: sim snapshot has %d trailing bytes", len(p)-r.off)
	}
	return s, nil
}

// byteReader is a bounds-checked little-endian cursor; the first overrun
// sticks in err so decoders can read a whole struct and check once.
type byteReader struct {
	p   []byte
	off int
	err error
}

func (r *byteReader) overrun() {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: truncated section (offset %d of %d)", r.off, len(r.p))
	}
}

func (r *byteReader) u8() byte {
	if r.off+1 > len(r.p) {
		r.overrun()
		return 0
	}
	v := r.p[r.off]
	r.off++
	return v
}

func (r *byteReader) u32() uint32 {
	if r.off+4 > len(r.p) {
		r.overrun()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v
}

func (r *byteReader) u64() uint64 {
	if r.off+8 > len(r.p) {
		r.overrun()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

func (r *byteReader) done() bool { return r.err == nil && r.off == len(r.p) }

// Decode parses and verifies one checkpoint image: magic, version,
// section framing, and every section CRC. Any damage — truncation, a
// flipped bit, an unknown layout — returns an error; Load turns that
// into a previous-generation fallback.
func Decode(p []byte) (*Checkpoint, error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("ckpt: file too short (%d bytes)", len(p))
	}
	if !bytes.Equal(p[:4], magic[:]) {
		return nil, fmt.Errorf("ckpt: bad magic %q", p[:4])
	}
	if v := binary.LittleEndian.Uint16(p[4:6]); v != Version {
		return nil, fmt.Errorf("ckpt: version %d, this build reads %d", v, Version)
	}
	nsec := int(binary.LittleEndian.Uint16(p[6:8]))
	c := &Checkpoint{}
	off := 8
	sawMeta, sawCursor := false, false
	for i := 0; i < nsec; i++ {
		if off+9 > len(p) {
			return nil, fmt.Errorf("ckpt: truncated section header (section %d)", i)
		}
		kind := p[off]
		n := int(binary.LittleEndian.Uint32(p[off+1 : off+5]))
		sum := binary.LittleEndian.Uint32(p[off+5 : off+9])
		off += 9
		if off+n > len(p) {
			return nil, fmt.Errorf("ckpt: section %d (kind %d) truncated: wants %d bytes, %d left", i, kind, n, len(p)-off)
		}
		payload := p[off : off+n]
		off += n
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, fmt.Errorf("ckpt: section %d (kind %d) checksum mismatch: %08x != %08x", i, kind, got, sum)
		}
		var err error
		switch kind {
		case secMeta:
			err = json.Unmarshal(payload, &c.Meta)
			sawMeta = err == nil
		case secSim:
			c.Sim, err = decodeSimState(payload)
		case secCursor:
			err = json.Unmarshal(payload, &c.Cursor)
			sawCursor = err == nil
		case secMetric:
			c.Metrics = &telemetry.Snapshot{}
			err = json.Unmarshal(payload, c.Metrics)
		case secAttr:
			c.Attr = &attr.Totals{}
			err = json.Unmarshal(payload, c.Attr)
		case secBudget:
			c.Budget = &guard.Budget{}
			err = json.Unmarshal(payload, c.Budget)
		default:
			err = fmt.Errorf("ckpt: unknown section kind %d", kind)
		}
		if err != nil {
			return nil, err
		}
	}
	if off != len(p) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after %d sections", len(p)-off, nsec)
	}
	if !sawMeta || !sawCursor {
		return nil, fmt.Errorf("ckpt: missing required section (meta %v, cursor %v)", sawMeta, sawCursor)
	}
	return c, nil
}

// Load reads the newest intact checkpoint generation: <path> first,
// falling back to <path>.prev when the current file is missing, torn,
// or corrupted. It returns the checkpoint, the file it came from, and —
// only when both generations fail — an error describing both.
func Load(path string) (*Checkpoint, string, error) {
	c, errCur := loadOne(path)
	if errCur == nil {
		return c, path, nil
	}
	prev := path + PrevSuffix
	c, errPrev := loadOne(prev)
	if errPrev == nil {
		return c, prev, nil
	}
	return nil, "", fmt.Errorf("ckpt: no intact checkpoint: %v; fallback %v", errCur, errPrev)
}

func loadOne(path string) (*Checkpoint, error) {
	p, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(p)
}

// Remove deletes both checkpoint generations — called on clean run
// completion so a later resume cannot silently replay a finished scan.
func Remove(path string) {
	os.Remove(path)
	os.Remove(path + PrevSuffix)
}
