package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"automatazoo/internal/atomicio"
	"automatazoo/internal/attr"
	"automatazoo/internal/guard"
	"automatazoo/internal/parallel"
	"automatazoo/internal/report"
	"automatazoo/internal/stats"
	"automatazoo/internal/telemetry"
)

// telFlags is the observability flag set shared by run, resume and the
// table commands: -trace, -trace-sample, -metrics, -debug-addr, -report,
// plus the live-ops flags -progress and -stall-after.
type telFlags struct {
	trace    *string
	sample   *int64
	metrics  *string
	debug    *string
	report   *string
	progress *time.Duration
	stall    *time.Duration
}

func telemetryFlags(fs *flag.FlagSet) *telFlags {
	return &telFlags{
		trace:    fs.String("trace", "", "write an NDJSON event trace to this file (see internal/telemetry doc.go for the schema)"),
		sample:   fs.Int64("trace-sample", 1, "record symbol/activate trace events only for offsets divisible by N (reports and cache events are always recorded)"),
		metrics:  fs.String("metrics", "", "write a metrics-registry JSON snapshot to this file on completion"),
		debug:    fs.String("debug-addr", "", "serve net/http/pprof, Prometheus (/metrics), and live progress (/progress) on this address, e.g. localhost:6060"),
		report:   fs.String("report", "", "write a run-report manifest (JSON: environment, kernel rows, phase spans, metrics) to this file"),
		progress: fs.Duration("progress", 0, "print per-kernel progress heartbeats (bytes, rate, active set, ETA) to stderr at this interval (0 = off)"),
		stall:    fs.Duration("stall-after", 0, "stop the run (exit 3) and print every goroutine's stack to stderr when a kernel heartbeats nothing for this long (0 = off)"),
	}
}

// obsSession is one command's activated telemetry: the hook bundle built
// from the flags — registry, trace sink, phase-span collector and
// governor (Progress is per kernel, see hooks) — plus where its artifacts
// go. Close writes the metrics snapshot and the run-report manifest and
// flushes the trace.
type obsSession struct {
	stats.Hooks
	traceFile   *telemetry.NDJSON // Tracer's concrete sink, for Close
	metricsPath string
	reportPath  string

	// Live-ops surface: the progress aggregator exists whenever the
	// session is active; the watchdog and stderr ticker only when their
	// flags armed them.
	prog       *telemetry.Progress
	watchdog   *telemetry.Watchdog
	sigStop    func()
	tickStop   chan struct{}
	tickDone   chan struct{}
	stallAfter time.Duration

	// Manifest contents accumulated by the command via setReport.
	command  string
	workers  int
	suite    map[string]string
	rows     []report.KernelRow
	attrRows []attr.Cost

	// Truncation verdict (setTruncated): the manifest is still written,
	// flagged, with whatever rows/spans/metrics the run produced.
	truncated     bool
	trippedBudget string
}

// session materializes the flags. The registry exists whenever any
// telemetry output is requested (the trace alone still benefits from
// counters at /metrics); everything nil means fully disabled.
func (tf *telFlags) session() (*obsSession, error) {
	s := &obsSession{metricsPath: *tf.metrics, reportPath: *tf.report, stallAfter: *tf.stall}
	active := *tf.metrics != "" || *tf.debug != "" || *tf.trace != "" || *tf.report != "" ||
		*tf.progress > 0 || *tf.stall > 0
	if active {
		s.Registry = telemetry.NewRegistry()
		s.prog = telemetry.NewProgress()
	}
	if *tf.report != "" {
		s.Spans = telemetry.NewSpans()
	}
	if *tf.trace != "" {
		f, err := os.Create(*tf.trace)
		if err != nil {
			return nil, err
		}
		s.traceFile = telemetry.NewNDJSON(f)
		s.traceFile.SampleEvery = *tf.sample
		s.Tracer = s.traceFile
	}
	if *tf.debug != "" {
		if _, err := startDebugServer(*tf.debug, s); err != nil {
			return nil, err
		}
	}
	if *tf.progress > 0 {
		s.startTicker(*tf.progress)
	}
	return s, nil
}

// startTicker launches the -progress stderr heartbeat printer. Close
// stops it and waits for the goroutine to drain, so ticker output never
// interleaves with the command's final table.
func (s *obsSession) startTicker(every time.Duration) {
	s.tickStop = make(chan struct{})
	s.tickDone = make(chan struct{})
	go func() {
		defer close(s.tickDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.tickStop:
				return
			case <-t.C:
				printProgress(s.prog)
			}
		}
	}()
}

// printProgress writes one stderr line per live (not Done) tracker.
func printProgress(p *telemetry.Progress) {
	for _, ps := range p.Snapshot() {
		if ps.Done {
			continue
		}
		line := fmt.Sprintf("azoo: progress %s: %d", ps.Name, ps.Bytes)
		if ps.TotalBytes > 0 {
			line += fmt.Sprintf("/%d bytes (%.1f%%)", ps.TotalBytes,
				100*float64(ps.Bytes)/float64(ps.TotalBytes))
		} else {
			line += " bytes"
		}
		line += fmt.Sprintf(" %.0f B/s, active %d", ps.BytesPerSec, ps.Active)
		if ps.CacheBytes > 0 {
			line += fmt.Sprintf(", cache %d B", ps.CacheBytes)
		}
		if ps.Fallbacks > 0 {
			line += fmt.Sprintf(", fallbacks %d", ps.Fallbacks)
		}
		if ps.ETASeconds > 0 {
			line += fmt.Sprintf(", eta %.1fs", ps.ETASeconds)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// armWatchdog starts the stall watchdog when -stall-after is set. Called
// after the governor is attached: on a stall the watchdog names the quiet
// kernel, prints every goroutine's stack to stderr and trips the
// governor, which releases workers parked at their next boundary check.
// A -stall-after with no budgets still needs a governor to trip, so one
// is created with an empty budget in that case.
func (s *obsSession) armWatchdog() {
	if s == nil || s.stallAfter <= 0 || s.prog == nil {
		return
	}
	if s.Governor == nil {
		s.Governor = guard.New(context.Background(), guard.Budget{})
	}
	quiet := s.stallAfter
	s.watchdog = telemetry.NewWatchdog(s.prog, quiet, func(r telemetry.StallReport) {
		fmt.Fprintf(os.Stderr, "azoo: stall: %q produced no heartbeat for %v; goroutine stacks:\n%s",
			r.Component, time.Duration(r.QuietNanos), r.Stacks)
		s.Governor.TripStalled(r.Component, quiet)
	})
	s.watchdog.Start()
}

// armSignals routes SIGINT/SIGTERM through the governor's graceful-drain
// path: the first signal trips the governor, engines stop at their next
// chunk boundary, and the command's trip handling writes the final
// checkpoint and the truncated manifest before exiting 3 (truncated); a
// second signal forces immediate exit. Armed when the
// run has something to drain into — an active governor or telemetry
// session — or unconditionally with force (checkpointed scans and
// resume). Idempotent; Close stops the handler.
func (s *obsSession) armSignals(force bool) {
	if s == nil || s.sigStop != nil {
		return
	}
	if !force && s.Governor == nil && s.Registry == nil {
		return
	}
	if s.Governor == nil {
		s.Governor = guard.New(context.Background(), guard.Budget{})
	}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(os.Stderr, "azoo: received %v; draining at the next chunk boundary (second signal forces exit)\n", sig)
			s.Governor.TripSignaled(sig.String())
			select {
			case sig2 := <-ch:
				fmt.Fprintf(os.Stderr, "azoo: received %v again; forcing exit\n", sig2)
				os.Exit(exitTruncated)
			case <-done:
			}
		case <-done:
		}
	}()
	s.sigStop = func() {
		signal.Stop(ch)
		close(done)
	}
}

// hooks returns the session's hook bundle for one named kernel: the
// session's sinks with Progress set to that kernel's tracker. With
// nothing armed it is the zero bundle, whose every hook is a no-op.
func (s *obsSession) hooks(kernel string) stats.Hooks {
	h := s.Hooks
	h.Progress = s.prog.Tracker(kernel)
	return h
}

// setReport records the manifest contents for Close: the command name,
// worker count, stringified configuration, and per-kernel rows.
func (s *obsSession) setReport(command string, workers int, suite map[string]string, rows []report.KernelRow) {
	if s == nil {
		return
	}
	s.command, s.workers, s.suite, s.rows = command, workers, suite, rows
}

// attrTopK bounds the attribution rows recorded in the manifest and the
// azoo_attr_* Prometheus family cardinality.
const attrTopK = 10

// recordAttribution folds the collector's committed totals, stores the
// top-K rows for the manifest's attribution section, and publishes them
// into the registry as attr.* metrics (azoo_attr_* on /metrics). A nil
// collector (attribution disabled) is a no-op.
func (s *obsSession) recordAttribution(col *attr.Collector) {
	if s == nil || col == nil {
		return
	}
	s.attrRows = attr.Top(col.Fold(), attrTopK)
	col.Publish(s.Registry, attrTopK)
}

// setTruncated flags the manifest as governor-truncated. A truncated run
// still writes a valid manifest — partial rows, phase spans, and metrics
// included — so the artifact records how far the run got and why it
// stopped.
func (s *obsSession) setTruncated(trip *guard.TripError) {
	if s == nil || trip == nil {
		return
	}
	s.truncated = true
	s.trippedBudget = trip.Budget
}

// closeTruncated finishes a command whose experiment returned err under a
// governor: a budget trip is recorded on the manifest and the session is
// closed (writing the flagged manifest) before the error propagates to
// main's exit-code mapping. A worker panic prints the stack captured at
// the recover site to stderr and writes the (non-truncated) manifest.
// Other errors pass through untouched.
func (s *obsSession) closeTruncated(err error) error {
	if trip := guard.AsTrip(err); trip != nil {
		s.setTruncated(trip)
		if cerr := s.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "azoo:", cerr)
		}
		return err
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		fmt.Fprintf(os.Stderr, "azoo: stack of panicked item %d:\n%s", pe.Index, pe.Stack)
		if cerr := s.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "azoo:", cerr)
		}
	}
	return err
}

// Close flushes the trace and writes the metrics snapshot and the
// run-report manifest. Live-ops teardown happens first: the watchdog and
// progress ticker stop.
func (s *obsSession) Close() error {
	if s == nil {
		return nil
	}
	if s.watchdog != nil {
		s.watchdog.Stop()
		s.watchdog = nil
	}
	if s.sigStop != nil {
		s.sigStop()
		s.sigStop = nil
	}
	if s.tickStop != nil {
		close(s.tickStop)
		<-s.tickDone
		s.tickStop = nil
	}
	var first error
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil {
			first = err
		} else {
			fmt.Fprintf(os.Stderr, "azoo: wrote %d trace events\n", s.traceFile.Events())
		}
	}
	if s.metricsPath != "" && s.Registry != nil {
		if err := atomicio.WriteFile(s.metricsPath, s.Registry.WriteJSON); err != nil && first == nil {
			first = err
		}
	}
	if s.reportPath != "" {
		m := &report.Manifest{
			SchemaVersion: report.SchemaVersion,
			Label:         s.command,
			Command:       s.command,
			Timestamp:     time.Now().UTC().Format(time.RFC3339),
			Env:           report.CaptureEnv(s.workers),
			Suite:         s.suite,
			Kernels:       s.rows,
			Spans:         s.Spans.Snapshot(),
			Truncated:     s.truncated,
			TrippedBudget: s.trippedBudget,
			Attribution:   s.attrRows,
		}
		if s.Registry != nil {
			snap := s.Registry.Snapshot()
			m.Metrics = &snap
		}
		if err := m.WriteFile(s.reportPath); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// startDebugServer serves pprof, Prometheus exposition, and the live
// progress JSON on addr for the lifetime of the process — ops support for
// long suite runs. The registry's live snapshot appears in Prometheus text
// format at /metrics, and the per-kernel heartbeat state at /progress.
// Returns the bound address so tests can dial an OS-assigned port.
func startDebugServer(addr string, s *obsSession) (net.Addr, error) {
	reg := s.Registry
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			if err := reg.WritePrometheus(w); err != nil {
				fmt.Fprintln(os.Stderr, "azoo: /metrics:", err)
			}
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		prog := s.prog
		if prog == nil {
			prog = telemetry.NewProgress()
		}
		if err := prog.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "azoo: /progress:", err)
		}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug server: %w", err)
	}
	fmt.Fprintf(os.Stderr, "azoo: debug server at http://%s/debug/pprof/ (also /metrics, /progress)\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "azoo: debug server:", err)
		}
	}()
	return ln.Addr(), nil
}
