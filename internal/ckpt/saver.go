package ckpt

import (
	"fmt"
	"os"
	"time"

	"automatazoo/internal/atomicio"
	"automatazoo/internal/guard"
	"automatazoo/internal/segment"
)

// Retry policy for transient checkpoint-I/O failures: capped exponential
// backoff, then sticky degradation to checkpoint-disabled.
const (
	DefaultMaxRetries = 4
	backoffBase       = 10 * time.Millisecond
	backoffCap        = 500 * time.Millisecond
)

// Saver persists checkpoints for one run. Attached as an engine
// Checkpointer it saves every Interval bytes of scanned input at the
// engines' chunk boundaries; the scan driver also calls Save directly
// between segment-parallel chunks and SaveFinal on graceful drains.
//
// Failure semantics: a write that keeps failing after MaxRetries retries
// does not kill the scan — the saver goes sticky-disabled, warns once,
// and every later Boundary/Save is a no-op. A `crash:ckpt.save` fault
// rule aborts the run *instead of* saving (simulated kill -9 at a save
// point); `ioerr:ckpt.write` rules fail individual write attempts to
// exercise the retry path.
type Saver struct {
	// Path is the checkpoint file; Path+".prev" holds the previous
	// generation.
	Path string
	// Interval is the minimum scanned bytes between periodic saves,
	// already aligned by AlignInterval.
	Interval int64
	// Meta is stored verbatim in every checkpoint the scan driver builds.
	Meta Meta
	// Capture builds the checkpoint to persist. The scan driver
	// (internal/scan) sets it; it must flush and commit ledgers and fold
	// unpublished engine counts into the registry snapshot, so the image
	// covers every byte scanned.
	Capture func() (*Checkpoint, error)
	// Hooks is the run's hook bundle; the saver uses two of its sinks.
	// Governor supplies fault injection (crash/ioerr rules) and budget
	// remainders. Registry receives the ckpt.* counters (exposed as
	// azoo_ckpt_* Prometheus families); ckpt.saves is incremented before
	// Capture so the persisted registry snapshot counts the in-progress
	// save — the accounting that keeps a resumed run's final counter
	// equal to the uninterrupted run's.
	segment.Hooks
	// MaxRetries bounds write retries per save (0 = DefaultMaxRetries).
	MaxRetries int
	// Sleep, when non-nil, replaces time.Sleep between retries (tests
	// inject a fake clock).
	Sleep func(time.Duration)
	// Warn, when non-nil, replaces the stderr warning on sticky disable.
	Warn func(msg string)

	sinceSave int64
	disabled  bool
}

// Boundary implements the engines' Checkpointer hook: n more input bytes
// were scanned; save when Interval has accumulated. Chunk boundaries lie
// on the absolute 4096-byte grid and Interval is a multiple of it, so
// save points land at deterministic stream offsets — the property the
// byte-identical-resume guarantee is built on.
func (s *Saver) Boundary(n int64) error {
	if s == nil || s.disabled {
		return nil
	}
	s.sinceSave += n
	if s.sinceSave < s.Interval {
		return nil
	}
	s.sinceSave = 0
	return s.Save("periodic")
}

// Disabled reports whether the saver degraded to checkpoint-disabled.
func (s *Saver) Disabled() bool { return s != nil && s.disabled }

// ResetInterval restarts the between-saves byte accumulator (the driver
// calls it when a direct Save makes the accumulated count stale).
func (s *Saver) ResetInterval() {
	if s != nil {
		s.sinceSave = 0
	}
}

// Save captures and durably persists one checkpoint. The fault injector
// fires first at guard.SiteCkptSave: a `crash:` rule aborts the run here
// WITHOUT saving — on-disk state is exactly what a kill at this save
// point would leave. A persistent write failure degrades the saver
// (sticky disable) and returns nil: the scan continues uncheckpointed.
func (s *Saver) Save(reason string) error {
	if s == nil || s.disabled {
		return nil
	}
	if err := s.Governor.Inject(guard.SiteCkptSave); err != nil {
		return err
	}
	return s.save(reason)
}

// SaveFinal persists a last checkpoint on a graceful drain (signal or
// budget trip). Unlike Save it ignores the run's sticky trip — the trip
// is WHY it is being called — except an injected crash (BudgetCrashed),
// which models a dead process that cannot write anything.
func (s *Saver) SaveFinal(reason string) {
	if s == nil || s.disabled {
		return
	}
	if t := s.Governor.Err(); t != nil && t.Budget == guard.BudgetCrashed {
		return
	}
	s.save(reason)
}

func (s *Saver) save(reason string) error {
	if s.Registry != nil {
		s.Registry.Counter("ckpt.saves").Add(1)
	}
	c, err := s.Capture()
	if err != nil {
		return fmt.Errorf("ckpt: capture: %w", err)
	}
	data, err := c.EncodeBytes()
	if err != nil {
		return err
	}
	maxRetries := s.MaxRetries
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	sleep := s.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := backoffBase
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			if s.Registry != nil {
				s.Registry.Counter("ckpt.retries").Add(1)
			}
			sleep(backoff)
			backoff *= 2
			if backoff > backoffCap {
				backoff = backoffCap
			}
		}
		if lastErr = s.writeOnce(data); lastErr == nil {
			return nil
		}
	}
	// Persistent failure: degrade, don't die. The warning is sticky-once;
	// the ckpt.disabled gauge flags the state for live ops.
	s.disabled = true
	if s.Registry != nil {
		s.Registry.Gauge("ckpt.disabled").Set(1)
	}
	msg := fmt.Sprintf("azoo: warning: checkpointing disabled after %d failed attempts (%s save): %v; the scan continues WITHOUT crash safety",
		maxRetries+1, reason, lastErr)
	if s.Warn != nil {
		s.Warn(msg)
	} else {
		fmt.Fprintln(os.Stderr, msg)
	}
	return nil
}

// writeOnce performs one durable write attempt: rotate the current
// generation to .prev, then atomically write the new image. A crash
// between the two steps leaves only .prev — which Load falls back to.
func (s *Saver) writeOnce(data []byte) error {
	if s.Governor.InjectIO(guard.SiteCkptWrite) {
		return fmt.Errorf("ckpt: injected I/O failure at %s", guard.SiteCkptWrite)
	}
	if _, err := os.Stat(s.Path); err == nil {
		if err := atomicio.Rename(s.Path, s.Path+PrevSuffix); err != nil {
			return err
		}
	}
	return atomicio.WriteFileBytes(s.Path, data)
}
