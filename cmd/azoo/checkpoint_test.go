package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/dfa"
	"automatazoo/internal/sim"
	"automatazoo/internal/stats"
	"automatazoo/internal/telemetry"
)

// TestResumeProgressTotalCoversOnlyRemainingStreams resumes a three-stream
// scan from a cursor inside the SECOND stream and requires the progress
// tracker to finish with done == total: the total credited at resume must
// be the tail of the in-flight stream plus the streams after it, not the
// streams already finished before the checkpoint (which never heartbeat
// again, so counting them leaves the ETA short of converging).
func TestResumeProgressTotalCoversOnlyRemainingStreams(t *testing.T) {
	bld := automata.NewBuilder()
	s0 := bld.AddSTE(charset.Single('a'), automata.StartAllInput)
	s1 := bld.AddSTE(charset.Single('b'), automata.StartNone)
	bld.AddEdge(s0, s1)
	bld.SetReport(s1, 1)
	a, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	const streamLen, resumeAt = 2 * ckpt.ChunkAlign, ckpt.ChunkAlign
	stream := bytes.Repeat([]byte("abxx"), streamLen/4)
	streams := [][]byte{stream, stream, stream}
	const wantTotal = (streamLen - resumeAt) + streamLen

	cursor := func() ckpt.Cursor { return ckpt.Cursor{Stream: 1, Offset: resumeAt} }
	engines := map[string]func(h stats.Hooks, sv *ckpt.Saver) error{
		"nfa": func(h stats.Hooks, sv *ckpt.Saver) error {
			e := sim.New(a)
			st := e.Run(stream[:resumeAt])
			c := cursor()
			c.Sim = &st
			_, _, err := runCheckpointedScan(sv, ckpt.Meta{}, a, streams, h, 1, 1,
				&ckpt.Checkpoint{Sim: e.CaptureState(), Cursor: c})
			return err
		},
		"dfa": func(h stats.Hooks, sv *ckpt.Saver) error {
			e, err := dfa.New(a)
			if err != nil {
				return err
			}
			st := e.Run(stream[:resumeAt])
			c := cursor()
			c.DFA = &st
			_, _, _, err = runCheckpointedDFA(sv, ckpt.Meta{}, a, streams, h,
				&ckpt.Checkpoint{DFA: e.CaptureState(), Cursor: c})
			return err
		},
	}
	for name, resume := range engines {
		t.Run(name, func(t *testing.T) {
			prog := telemetry.NewProgress()
			h := stats.Hooks{Progress: prog.Tracker(name)}
			sv := &ckpt.Saver{Path: filepath.Join(t.TempDir(), "ck"), Interval: ckpt.ChunkAlign}
			if err := resume(h, sv); err != nil {
				t.Fatal(err)
			}
			snap := prog.Snapshot()[0]
			if snap.Bytes != wantTotal || snap.TotalBytes != wantTotal {
				t.Errorf("resumed from stream 1 offset %d: done %d, total %d; both must be %d",
					resumeAt, snap.Bytes, snap.TotalBytes, wantTotal)
			}
		})
	}
}
