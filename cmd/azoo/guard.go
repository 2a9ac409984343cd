package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"time"

	"automatazoo/internal/guard"
)

// Exit codes. main maps every command's error to one of these, so shell
// callers and CI can distinguish "the run was cut short by its budget"
// from "the run is wrong" (see the README's exit-code table).
const (
	exitOK         = 0 // success
	exitRuntime    = 1 // runtime failure (I/O, build error, panic, ...)
	exitUsage      = 2 // bad command line
	exitTruncated  = 3 // run stopped by the governor; partial manifest written
	exitDivergence = 4 // difftest found engines disagreeing
)

// usageError marks a command-line mistake (unknown engine, bad flag
// value, wrong arity) for exit code 2.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usageErrorf(format string, args ...any) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

// divergenceError is difftest's verdict when engine pairs disagree.
type divergenceError struct{ n int }

func (e divergenceError) Error() string {
	return fmt.Sprintf("%d divergence(s) found", e.n)
}

// exitCode maps a command error to the process exit code. Governor trips
// (budget, deadline, cancellation, injected faults) rank as truncation:
// the run is incomplete, not incorrect.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var ue usageError
	var de divergenceError
	switch {
	case errors.As(err, &ue):
		return exitUsage
	case guard.AsTrip(err) != nil:
		return exitTruncated
	case errors.As(err, &de):
		return exitDivergence
	}
	return exitRuntime
}

// guardFlags is the run-governor flag set shared by run and the table
// commands: budgets, plus deterministic fault injection for resilience
// testing. All default to off; AZOO_FAULTS arms injection from the
// environment when -faults is not given.
type guardFlags struct {
	timeout   *time.Duration
	maxInput  *int64
	maxCache  *int64
	maxActive *int64
	faults    *string
	faultSeed *uint64
}

func governorFlags(fs *flag.FlagSet) *guardFlags {
	return &guardFlags{
		timeout:   fs.Duration("timeout", 0, "wall-clock budget; the run stops cleanly mid-stream when it expires (0 = unlimited)"),
		maxInput:  fs.Int64("max-input-bytes", 0, "stop after this many input symbols across all engines (0 = unlimited)"),
		maxCache:  fs.Int64("max-cache-mb", 0, "DFA transition-cache byte budget in MiB; exceeding it degrades components to NFA stepping instead of stopping (0 = unlimited)"),
		maxActive: fs.Int64("max-active", 0, "max NFA active-set size per engine (0 = unlimited)"),
		faults:    fs.String("faults", "", "fault-injection spec, e.g. \"panic:dfa.construct:3,deadline:sim.chunk:~50\" (default $AZOO_FAULTS)"),
		faultSeed: fs.Uint64("fault-seed", 0, "seed for probabilistic (~N) fault rules"),
	}
}

// degradedMark annotates a table row whose DFA engine fell back to NFA
// stepping (cache budget exhausted or thrashing): its timings are honest
// but describe the degraded mode, not cached-DFA scanning. Un-degraded
// rows get an empty suffix, keeping normal output byte-identical.
func degradedMark(fallbacks int) string {
	if fallbacks > 0 {
		return " [degraded]"
	}
	return ""
}

// openSession materializes the telemetry flags into a session and the
// governor flags into its governor (when any budget or fault rule is
// armed), then arms the stall watchdog and the signal drain.
func openSession(tf *telFlags, gf *guardFlags) (*obsSession, error) {
	sess, err := tf.session()
	if err != nil {
		return nil, err
	}
	gov, err := gf.governor(context.Background())
	if err != nil {
		return nil, err
	}
	sess.Governor = gov
	sess.armWatchdog()
	sess.armSignals(false)
	return sess, nil
}

// governor materializes the flags into a run governor, or nil when
// nothing is armed — the nil governor keeps every engine on its exact
// ungoverned fast path.
func (gf *guardFlags) governor(ctx context.Context) (*guard.Governor, error) {
	b := guard.Budget{
		Timeout:       *gf.timeout,
		MaxInputBytes: *gf.maxInput,
		MaxCacheBytes: *gf.maxCache << 20,
		MaxActiveSet:  *gf.maxActive,
	}
	var inj *guard.Injector
	var err error
	if *gf.faults != "" {
		inj, err = guard.ParseInjector(*gf.faults, *gf.faultSeed)
	} else {
		inj, err = guard.InjectorFromEnv()
	}
	if err != nil {
		return nil, usageErrorf("%v", err)
	}
	if b == (guard.Budget{}) && inj == nil {
		return nil, nil
	}
	g := guard.New(ctx, b)
	g.SetInjector(inj)
	return g, nil
}
