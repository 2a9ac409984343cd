// Package hooks defines the one value every engine is observed, bounded
// and checkpointed by (Set), and the one governed chunk loop every
// engine's RunChecked runs under it (Chunks). sim, dfa and prefilter each
// take a Set through a single Attach; nothing else in the tree spells the
// engine-level hook list.
package hooks

import (
	"automatazoo/internal/attr"
	"automatazoo/internal/guard"
	"automatazoo/internal/telemetry"
)

// Checkpointer is the durable-checkpoint hook: Chunks calls Boundary with
// the chunk's byte count after each chunk completes, and the
// implementation decides whether the accumulated interval warrants a save
// (internal/ckpt.Saver). A returned error stops the run like a governor
// trip.
type Checkpointer interface {
	Boundary(n int64) error
}

// Set is everything attachable to an engine. Every field is optional and
// nil-guarded at each touch point; the zero Set is a bare engine whose
// RunChecked is exactly Run, allocation-free (the allocguard tests).
//
// Frontier and the four sinks after it are handed to every engine of a
// run; no registry is (engines count in Stats, and the drivers publish).
// Ledger and Checkpointer belong to one scan unit: drivers attach them
// for the unit (a slice pass, a speculative segment, one stream of a
// checkpointed scan) and re-Attach without them afterwards.
type Set struct {
	// Frontier observes the NFA enabled-frontier size once per symbol
	// (sim, prefilter), the one per-symbol quantity Stats cannot give; the
	// lazy DFA has no NFA frontier and ignores it.
	Frontier *telemetry.Histogram
	// Tracer receives per-symbol/activation/report (sim, prefilter) or
	// report/cache (dfa) events from inside the scan loop.
	Tracer telemetry.Tracer
	// Spans times every Run/RunChecked call as one aggregated
	// "<engine>.run" phase span (the prefilter engine records none).
	Spans *telemetry.Spans
	// Governor bounds RunChecked (and dfa subset construction); bare
	// Run/Step calls stay ungoverned.
	Governor *guard.Governor
	// Progress is heartbeaten at every chunk boundary of RunChecked.
	Progress *telemetry.ProgressTracker
	// Ledger attributes runtime cost to source patterns from the attach
	// point of the stream onward; the engine never commits it.
	Ledger *attr.Ledger
	// Checkpointer is offered the stream after every chunk of RunChecked.
	Checkpointer Checkpointer
}

// Chunk is the governed input granularity: budgets, cancellation,
// heartbeats and checkpoints are observed every Chunk symbols — cheap
// enough to be invisible, fine enough that a tripped run overruns its
// budget by at most one chunk. Checkpoint save points rely on it being
// the same absolute grid in every engine.
const Chunk = 4096

// Chunked reports whether RunChecked needs the chunked path at all: with
// no governor, progress tracker or checkpointer there is nothing to do
// at a chunk boundary and RunChecked collapses to Run.
func (s *Set) Chunked() bool {
	return s.Governor != nil || s.Progress != nil || s.Checkpointer != nil
}

// Chunks is the governed scan loop. It feeds input to scan one Chunk at a
// time and, per chunk, in this order:
//
//  1. asks the Governor's Boundary at site (fault injection, sticky trip,
//     deadline, input-byte accounting) — an error stops before the chunk,
//  2. scans the chunk,
//  3. heartbeats Progress with the chunk size and frontier(),
//  4. calls flush when a Ledger is attached (the engine charges the bytes
//     scanned since its last flush),
//  5. stops if scan failed,
//  6. offers the chunk to the Checkpointer,
//  7. checks frontier() against the Governor's active-set budget.
//
// The first error ends the loop and is returned. Steps 5→6→7 in that
// order mean a completed chunk is always offered for checkpointing before
// the active-set check can end the run.
//
// frontier is the size of the engine's NFA active set after the chunk. An
// engine without one (dfa) passes nil: steps 3 and 7 are skipped and the
// engine heartbeats from scan with whatever it tracks instead. flush may
// be nil when the engine has no per-chunk ledger work.
func (s *Set) Chunks(site string, input []byte, scan func(chunk []byte) error, frontier func() int, flush func()) error {
	var err error
	for off := 0; off < len(input); off += Chunk {
		end := min(off+Chunk, len(input))
		n := int64(end - off)
		if err = s.Governor.Boundary(site, n); err != nil {
			break
		}
		err = scan(input[off:end])
		var fl int64
		if frontier != nil {
			fl = int64(frontier())
			if s.Progress != nil {
				s.Progress.Beat(n, fl)
			}
		}
		if s.Ledger != nil && flush != nil {
			flush()
		}
		if err != nil {
			break
		}
		if s.Checkpointer != nil {
			if err = s.Checkpointer.Boundary(n); err != nil {
				break
			}
		}
		if frontier != nil {
			if err = s.Governor.CheckActive(fl); err != nil {
				break
			}
		}
	}
	return err
}
