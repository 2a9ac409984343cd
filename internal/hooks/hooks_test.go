package hooks

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/guard"
	"automatazoo/internal/telemetry"
)

const testSite = "test.chunk"

// harness drives Chunks with every hook attached. The governor, progress
// tracker and ledger are the real (concrete) sinks, so the
// engine-side callbacks — scan, frontier, flush and the checkpointer —
// probe their state at the moment they are called; the log of those
// probes is the observed step order.
type harness struct {
	set  Set
	prog *telemetry.Progress
	log  []string

	chunk    int           // 1-based index of the chunk being processed
	scanErr  map[int]error // by chunk index
	ckptErr  map[int]error
	frontier map[int]int // default 1
}

func newHarness(t *testing.T, b guard.Budget) *harness {
	t.Helper()
	bld := automata.NewBuilder()
	bld.SetReport(bld.AddSTE(charset.Single('a'), automata.StartAllInput), 1)
	a, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	col := attr.NewCollector(a, attr.FromComponents(a, "c"))
	h := &harness{prog: telemetry.NewProgress()}
	h.set = Set{
		Governor: guard.New(context.Background(), b),
		Progress: h.prog.Tracker("k"),
		Ledger:   col.Ledger(col.GlobalCompOf()),
	}
	h.set.Checkpointer = h
	return h
}

// probe renders the sinks' state: bytes the governor has charged, bytes
// the progress tracker has been beaten.
func (h *harness) probe(step string, n int) {
	h.log = append(h.log, fmt.Sprintf("%s#%d n=%d charged=%d beaten=%d",
		step, h.chunk, n, h.set.Governor.InputBytes(), h.prog.Snapshot()[0].Bytes))
}

func (h *harness) scan(chunk []byte) error {
	h.chunk++
	h.probe("scan", len(chunk))
	return h.scanErr[h.chunk]
}

func (h *harness) frontierLen() int {
	h.probe("frontier", 0)
	if f, ok := h.frontier[h.chunk]; ok {
		return f
	}
	return 1
}

func (h *harness) flush() { h.probe("flush", 0) }

func (h *harness) Boundary(n int64) error {
	h.probe("ckpt", int(n))
	return h.ckptErr[h.chunk]
}

// TestChunksProtocol pins the one governed loop: the per-chunk step order
// (governor boundary → scan → beat → ledger flush → checkpoint →
// active-set check), the stop point for an error at each fallible step,
// and short-final-chunk accounting.
func TestChunksProtocol(t *testing.T) {
	const tail = 100
	input := make([]byte, 2*Chunk+tail)
	errCkpt := errors.New("disk on fire")
	constructTrip := &guard.TripError{Budget: guard.BudgetCacheBytes, Actual: 7, Site: "construct"}

	// fullChunk is one chunk's probe log when nothing stops it: idx is the
	// 1-based chunk, n its size, before the bytes charged/beaten by the
	// chunks ahead of it.
	fullChunk := func(idx, n, before int) []string {
		return []string{
			// charged (boundary) before the scan; not yet beaten
			fmt.Sprintf("scan#%d n=%d charged=%d beaten=%d", idx, n, before+n, before),
			fmt.Sprintf("frontier#%d n=0 charged=%d beaten=%d", idx, before+n, before),
			// beaten before the ledger flush
			fmt.Sprintf("flush#%d n=0 charged=%d beaten=%d", idx, before+n, before+n),
			fmt.Sprintf("ckpt#%d n=%d charged=%d beaten=%d", idx, n, before+n, before+n),
		}
	}
	concat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}

	cases := []struct {
		name      string
		budget    guard.Budget
		arm       func(h *harness)
		wantLog   []string
		wantErr   func(error) bool
		wantBytes int64 // bytes charged to the governor at return
	}{
		{
			name:      "clean run, short final chunk",
			wantLog:   concat(fullChunk(1, Chunk, 0), fullChunk(2, Chunk, Chunk), fullChunk(3, tail, 2*Chunk)),
			wantErr:   func(err error) bool { return err == nil },
			wantBytes: int64(len(input)),
		},
		{
			name:    "governor boundary trips before chunk 2 is scanned",
			budget:  guard.Budget{MaxInputBytes: Chunk + 50},
			wantLog: fullChunk(1, Chunk, 0),
			wantErr: func(err error) bool {
				tr := guard.AsTrip(err)
				return tr != nil && tr.Budget == guard.BudgetInputBytes && tr.Site == testSite
			},
			wantBytes: Chunk, // the refused chunk is un-charged
		},
		{
			name:      "scan fails in chunk 2: beaten and flushed, not checkpointed",
			arm:       func(h *harness) { h.scanErr = map[int]error{2: constructTrip} },
			wantLog:   concat(fullChunk(1, Chunk, 0), fullChunk(2, Chunk, Chunk)[:3]),
			wantErr:   func(err error) bool { return err == error(constructTrip) },
			wantBytes: 2 * Chunk,
		},
		{
			name: "checkpointer fails at chunk 2: active set never checked",
			// MaxActiveSet would trip on chunk 2's frontier if the check ran.
			budget: guard.Budget{MaxActiveSet: 4},
			arm: func(h *harness) {
				h.ckptErr = map[int]error{2: errCkpt}
				h.frontier = map[int]int{2: 9}
			},
			wantLog:   concat(fullChunk(1, Chunk, 0), fullChunk(2, Chunk, Chunk)),
			wantErr:   func(err error) bool { return err == errCkpt },
			wantBytes: 2 * Chunk,
		},
		{
			name:    "active-set budget trips after chunk 2 was offered for checkpoint",
			budget:  guard.Budget{MaxActiveSet: 4},
			arm:     func(h *harness) { h.frontier = map[int]int{2: 9} },
			wantLog: concat(fullChunk(1, Chunk, 0), fullChunk(2, Chunk, Chunk)),
			wantErr: func(err error) bool {
				tr := guard.AsTrip(err)
				return tr != nil && tr.Budget == guard.BudgetActiveSet && tr.Actual == 9
			},
			wantBytes: 2 * Chunk,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.budget)
			if tc.arm != nil {
				tc.arm(h)
			}
			err := h.set.Chunks(testSite, input, h.scan, h.frontierLen, h.flush)
			if !tc.wantErr(err) {
				t.Fatalf("err = %v", err)
			}
			if !reflect.DeepEqual(h.log, tc.wantLog) {
				t.Errorf("step log:\n got  %s\n want %s", strings.Join(h.log, "\n      "), strings.Join(tc.wantLog, "\n      "))
			}
			if got := h.set.Governor.InputBytes(); got != tc.wantBytes {
				t.Errorf("governor charged %d bytes, want %d", got, tc.wantBytes)
			}
		})
	}
}

// TestChunksWithoutActiveSet is the dfa shape: nil frontier and flush
// mean no heartbeat and no active-set check from the loop (the engine
// beats from scan), while boundary, scan and checkpoint still run.
func TestChunksWithoutActiveSet(t *testing.T) {
	h := newHarness(t, guard.Budget{MaxActiveSet: 1})
	if err := h.set.Chunks(testSite, make([]byte, Chunk+1), h.scan, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("scan#1 n=%d charged=%d beaten=0", Chunk, Chunk),
		fmt.Sprintf("ckpt#1 n=%d charged=%d beaten=0", Chunk, Chunk),
		fmt.Sprintf("scan#2 n=1 charged=%d beaten=0", Chunk+1),
		fmt.Sprintf("ckpt#2 n=1 charged=%d beaten=0", Chunk+1),
	}
	if !reflect.DeepEqual(h.log, want) {
		t.Errorf("step log:\n got  %s\n want %s", strings.Join(h.log, "\n      "), strings.Join(want, "\n      "))
	}
}

// TestZeroSetTakesBarePath pins the fast-path predicate: only the three
// chunk-boundary hooks force the chunked path; the zero Set — and the
// per-run sinks alone — leave RunChecked free to collapse to Run.
func TestZeroSetTakesBarePath(t *testing.T) {
	h := newHarness(t, guard.Budget{})
	full := h.set
	cases := []struct {
		name string
		set  Set
		want bool
	}{
		{"zero", Set{}, false},
		{"per-run sinks only", Set{Frontier: telemetry.NewRegistry().Histogram("f", nil), Tracer: telemetry.NewNDJSON(&bytes.Buffer{}), Spans: telemetry.NewSpans(), Ledger: full.Ledger}, false},
		{"governor", Set{Governor: full.Governor}, true},
		{"progress", Set{Progress: full.Progress}, true},
		{"checkpointer", Set{Checkpointer: full.Checkpointer}, true},
	}
	for _, tc := range cases {
		if got := tc.set.Chunked(); got != tc.want {
			t.Errorf("%s: Chunked() = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The zero Set still drives the loop correctly if asked to: every step
	// is nil-guarded, only scan and the callbacks run.
	var z Set
	var scanned int
	if err := z.Chunks(testSite, make([]byte, Chunk+5), func(c []byte) error { scanned += len(c); return nil }, func() int { return 1 << 40 }, nil); err != nil {
		t.Fatal(err)
	}
	if scanned != Chunk+5 {
		t.Errorf("scanned %d bytes, want %d", scanned, Chunk+5)
	}
}
