package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"automatazoo/bench/catalog"
)

const (
	minReps = 3
	maxReps = 25
)

// caseResult is the per-case detail behind a workload's metrics.
type caseResult struct {
	Name       string    `json:"name"`
	Args       string    `json:"args"`
	Regime     string    `json:"regime,omitempty"`
	RunS       float64   `json:"run_s"`
	TwinS      float64   `json:"twin_s,omitempty"`
	CPUS       float64   `json:"cpu_s"`
	RSSMiB     float64   `json:"rss_mib"`
	StreamMBps float64   `json:"stream_mbps,omitempty"`
	RunSamples []float64 `json:"run_samples_s"`
	TwinSample []float64 `json:"twin_samples_s,omitempty"`
	CPUSamples []float64 `json:"cpu_samples_s"`
	RSSSamples []float64 `json:"rss_samples_mib"`
}

// workloadResult is one workload's end-to-end metrics and their provenance.
type workloadResult struct {
	Name      string             `json:"name"`
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Failures  []string           `json:"failures,omitempty"`
	MeasuredS float64            `json:"measured_s"`
	Metrics   map[string]float64 `json:"metrics"`
	Cases     []*caseResult      `json:"cases"`
}

func (w *workloadResult) fail(format string, a ...any) {
	w.Failed++
	if len(w.Failures) < 20 {
		w.Failures = append(w.Failures, fmt.Sprintf(format, a...))
	}
}

// step is one timed invocation in a pass over the workload.
type step struct {
	c    int // case index
	twin bool
}

// runWorkload measures one workload: untimed reference runs first, then
// alternating passes over every case and twin, one child at a time, until
// the time budget (which the reference runs count against) is spent, never
// fewer than minReps passes.
//
// smoke shrinks every stream and runs a single pass: it proves the
// plumbing, not the numbers.
func runWorkload(r *runner, w catalog.Workload, budget time.Duration, smoke bool) *workloadResult {
	res := &workloadResult{Name: w.Name, Metrics: map[string]float64{}}
	cases := append([]catalog.Case(nil), w.Cases...)
	if smoke {
		for i := range cases {
			cases[i].Input = smokeInput(cases[i])
		}
	}

	start := time.Now()

	// Set-up, untimed: the reference output of every case that is not its
	// own reference. Self-referencing cases are checked against their first
	// repetition, which pins determinism across processes.
	refs := make([][]byte, len(cases))
	refErr := make([]error, len(cases))
	for i, c := range cases {
		if c.Cmd != "run" || isReference(c) {
			continue
		}
		res.Attempted++
		s := r.runCase(reference(c), c.Input)
		if s.err != nil {
			res.fail("%s reference: %v", c.Name, s.err)
			refErr[i] = errors.New("reference run failed")
			continue
		}
		refs[i] = s.stdout
	}

	var order []step
	for i := range cases {
		order = append(order, step{i, false}, step{i, true})
	}
	out := make([]*caseResult, len(cases))
	for i, c := range cases {
		out[i] = &caseResult{Name: c.Name, Regime: c.Regime, Args: fmt.Sprint(r.args(c, c.Input, "$TMP"))}
	}
	twinOut := make([][]byte, len(cases))

	var lastPass time.Duration
	for rep := 0; rep < maxReps; rep++ {
		if rep >= minReps && time.Since(start)+lastPass/2 > budget { // another pass only if at least half of it fits
			break
		}
		if smoke && rep >= 1 {
			break
		}
		passStart := time.Now()
		for k := range order {
			st := order[k]
			if rep%2 == 1 { // alternate direction so drift hits no case twice
				st = order[len(order)-1-k]
			}
			c := cases[st.c]
			res.Attempted++
			if st.twin {
				s := r.runCase(c, catalog.TwinInput)
				switch {
				case s.err != nil:
					res.fail("%s twin: %v", c.Name, s.err)
				case twinOut[st.c] != nil && !bytes.Equal(twinOut[st.c], s.stdout):
					res.fail("%s twin: output differs between repetitions", c.Name)
				default:
					twinOut[st.c] = s.stdout
					out[st.c].TwinSample = append(out[st.c].TwinSample, s.wallS)
				}
				continue
			}
			s := r.runCase(c, c.Input)
			if s.err == nil {
				s.err = refErr[st.c]
			}
			if s.err == nil {
				if refs[st.c] == nil {
					refs[st.c] = s.stdout
				}
				s.err = checkOutput(c, s.stdout, refs[st.c])
			}
			if s.err != nil {
				res.fail("%s: %v", c.Name, s.err)
				continue
			}
			cr := out[st.c]
			cr.RunSamples = append(cr.RunSamples, s.wallS)
			cr.CPUSamples = append(cr.CPUSamples, s.cpuS)
			cr.RSSSamples = append(cr.RSSSamples, s.rssMiB)
		}
		lastPass = time.Since(passStart)
		res.Reps++
	}
	res.MeasuredS = time.Since(start).Seconds()
	res.Cases = out
	summarise(res, cases)
	return res
}

// summarise folds per-case estimates into the workload's end-to-end metrics.
//
// A case's time is its fastest repetition, not its median: the work is
// deterministic and a shared machine only ever adds time, in spells of one to
// several seconds that slow every process by 10-60%. Of seven to ten short
// repetitions spread over the run, the fastest falls between the spells; the
// median sits inside them (bench/CALIBRATION.md has the comparison). Peak RSS
// is the largest of a case's repetitions: table1's and the parallel cases'
// are bimodal with GC and scheduling timing, so a median or a quartile flips
// between the modes from run to run, while the maximum finds the upper mode
// nearly every time.
//
// A case with no successful sample contributes nothing; its failures are
// already counted, and the metrics of an incorrect run are not used.
func summarise(res *workloadResult, cases []catalog.Case) {
	var runS, setupS, cpuS, peak float64
	var rates []float64
	for i, cr := range res.Cases {
		if len(cr.RunSamples) == 0 {
			continue
		}
		c := cases[i]
		cr.RunS, cr.CPUS, cr.RSSMiB = slices.Min(cr.RunSamples), slices.Min(cr.CPUSamples), slices.Max(cr.RSSSamples)
		runS += cr.RunS
		cpuS += cr.CPUS
		peak = math.Max(peak, cr.RSSMiB)
		if len(cr.TwinSample) == 0 {
			continue
		}
		cr.TwinS = slices.Min(cr.TwinSample)
		setupS += cr.TwinS
		mbps, ok := streamMBps(c, cr.RunS, cr.TwinS)
		if !ok {
			res.Attempted++
			res.fail("%s: twin (%.4fs) not faster than run (%.4fs): no marginal rate", c.Name, cr.TwinS, cr.RunS)
			continue
		}
		cr.StreamMBps = mbps
		rates = append(rates, mbps)
	}
	res.Metrics["run_s"] = runS
	res.Metrics["stream_mbps"] = geomean(rates)
	res.Metrics["setup_s"] = setupS
	res.Metrics["cpu_s"] = cpuS
	res.Metrics["peak_rss_mb"] = peak
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
}

// smokeInput is a stream an eighth of the real one: still long enough to be
// slower than its twin. table1 keeps its size; its stream share is small
// beside the 25 kernel builds already.
func smokeInput(c catalog.Case) int {
	if c.Cmd == "table1" {
		return c.Input
	}
	return max(c.Input/8, 1024)
}
