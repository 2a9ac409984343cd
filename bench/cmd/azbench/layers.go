package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"automatazoo/bench/catalog"
)

// layersResult is the per-layer half of a result file.
type layersResult struct {
	Metrics    map[string]float64 `json:"metrics"`
	Reps       map[string]int     `json:"reps,omitempty"` // timed repetitions behind each median; 0 marks a count
	Absent     []string           `json:"absent,omitempty"`
	ProbeError string             `json:"probe_error,omitempty"`
	ProbeS     float64            `json:"probe_s"`
	XCheck     map[string]float64 `json:"xcheck,omitempty"` // probe's in-process MB/s for the cross-check cases
	TraceFile  string             `json:"trace_file,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
}

// runLayers builds and runs the probe and measures the cost of looking from
// the command line. A probe that no longer builds or runs costs the
// per-layer metrics only: they are listed as absent and the end-to-end
// metrics are unaffected.
func runLayers(root string, r *runner, o options) *layersResult {
	res := &layersResult{Metrics: map[string]float64{}}
	res.Attempted++
	if err := res.probe(root, r, o); err != nil {
		res.Failed++
		res.ProbeError = err.Error()
	}
	res.hookOverhead(r, o)
	for _, m := range catalog.PerLayer() {
		if _, ok := res.Metrics[m.Name]; !ok {
			res.Absent = append(res.Absent, m.Name)
		}
	}
	return res
}

func (res *layersResult) probe(root string, r *runner, o options) error {
	bin, err := build(root, filepath.Join(root, "bench"), "./cmd/azprobe", "azprobe")
	if err != nil {
		return fmt.Errorf("azprobe unavailable: %v", err)
	}
	trace := filepath.Join(o.outDir, o.label+".trace.json")
	args := []string{"-seed", strconv.FormatUint(o.seed, 10), "-w", strconv.Itoa(r.workers), "-tmp", r.tmp, "-trace-out", trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.workload == "" && !o.layers {
		args = append(args, "-xcheck") // the full run has the CLI rates to compare with
	}
	cmd := exec.Command(bin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t0 := time.Now()
	runErr := cmd.Run()
	res.ProbeS = time.Since(t0).Seconds()
	var doc struct {
		Metrics map[string]float64 `json:"metrics"`
		Reps    map[string]int     `json:"reps"`
		XCheck  map[string]float64 `json:"xcheck"`
		Errors  []string           `json:"errors"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		return fmt.Errorf("azprobe: %v (%v): %s", err, runErr, firstBytes(errOut.Bytes(), 400))
	}
	// Whatever the probe did emit is kept even when one of its layers failed.
	for k, v := range doc.Metrics {
		res.Metrics[k] = v
	}
	res.Reps, res.XCheck, res.TraceFile = doc.Reps, doc.XCheck, trace
	if runErr != nil || len(doc.Errors) > 0 {
		return fmt.Errorf("azprobe: %v: %v", runErr, doc.Errors)
	}
	return nil
}

// hookOverhead measures hooks.overhead_ratio.<engine>: the wall time of a
// command with every hook attached over the same command bare, alternating
// the two, fastest of five each.
func (res *layersResult) hookOverhead(r *runner, o options) {
	for _, engine := range sortedKeys(catalog.HookCases) {
		bare := catalog.HookCases[engine]
		if o.smoke {
			bare.Input = smokeInput(bare)
		}
		hooked := bare
		hooked.Hooked = true
		var bareS, hookedS []float64
		var want []byte
		for rep := 0; rep < 5 && (rep < 1 || !o.smoke); rep++ {
			pair := []catalog.Case{bare, hooked}
			if rep%2 == 1 {
				pair[0], pair[1] = pair[1], pair[0]
			}
			for _, c := range pair {
				res.Attempted++
				s := r.runCase(c, c.Input)
				if s.err == nil {
					if want == nil {
						want = s.stdout
					}
					if !bytes.Equal(s.stdout, want) {
						s.err = fmt.Errorf("%s: hooked and bare output differ", c.Name)
					}
				}
				if s.err != nil {
					res.Failed++
					res.ProbeError += fmt.Sprintf(" hooks.%s: %v;", engine, s.err)
					continue
				}
				if c.Hooked {
					hookedS = append(hookedS, s.wallS)
				} else {
					bareS = append(bareS, s.wallS)
				}
			}
		}
		if len(bareS) > 0 && len(hookedS) > 0 {
			res.Metrics["hooks.overhead_ratio."+engine] = slices.Min(hookedS) / slices.Min(bareS)
			if res.Reps != nil {
				res.Reps["hooks.overhead_ratio."+engine] = len(hookedS)
			}
		}
	}
}

func printLayers(l *layersResult) {
	fmt.Printf("\n== per-layer metrics (probe %.1fs)\n", l.ProbeS)
	for _, m := range catalog.PerLayer() {
		v, ok := l.Metrics[m.Name]
		if !ok {
			fmt.Printf("%-42s %14s %-6s\n", m.Name, "absent", m.Unit)
			continue
		}
		n := ""
		if reps := l.Reps[m.Name]; reps > 0 {
			n = fmt.Sprintf("%d reps", reps)
		} else if m.Count {
			n = "count"
		}
		fmt.Printf("%-42s %14.5f %-6s %s\n", m.Name, v, m.Unit, n)
	}
	if l.ProbeError != "" {
		fmt.Printf("PROBE FAILED: %s\n", l.ProbeError)
	}
	if len(l.Absent) > 0 {
		fmt.Printf("%d per-layer metrics absent\n", len(l.Absent))
	}
}

// crossCheck compares the probe's in-process scan rate with the CLI's
// marginal rate for the same kernel, scale, input and seed. The probe
// leaves out stream generation and emit, so probe >= CLI is expected and
// the ratio is that share; it is reported, never asserted into the exit
// code, because both sides are wall-clock measurements on a shared machine.
func crossCheck(res *result) {
	if res.Layers == nil || len(res.Layers.XCheck) == 0 {
		return
	}
	fmt.Printf("\n== probe / CLI cross-check (in-process scan MB/s vs CLI marginal stream_mbps)\n")
	for _, key := range sortedKeys(res.Layers.XCheck) {
		probe := res.Layers.XCheck[key]
		cli := 0.0
		for _, w := range res.Workloads {
			for _, c := range w.Cases {
				if w.Name+"/"+c.Name == key {
					cli = c.StreamMBps
				}
			}
		}
		if cli <= 0 {
			fmt.Printf("%-28s probe %10.4f  CLI absent\n", key, probe)
			continue
		}
		verdict := "ok"
		switch ratio := probe / cli; {
		case ratio < 1:
			verdict = "PROBE SLOWER THAN CLI"
		case ratio > 1.35:
			verdict = "gap above 1.35x: generation+emit share is large"
		}
		fmt.Printf("%-28s probe %10.4f  CLI %10.4f  probe/CLI %.3f  %s\n", key, probe, cli, probe/cli, verdict)
	}
}
