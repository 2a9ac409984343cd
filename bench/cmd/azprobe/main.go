// Command azprobe is the benchmark's in-process probe: it times calls into
// each internal package's public functions on fixed seeded datasets, and
// replays the "azoo run" pipeline for all 25 kernels with a span at every
// layer boundary. azbench runs it for the per-layer metrics; end-to-end
// metrics never come from here.
//
// It is the only part of the benchmark that imports automatazoo/internal,
// so it is the only part a refactor of those packages can break; the list
// of entry points it depends on is in bench/README.md.
//
// Output: one JSON object on standard output
//
//	{"metrics": {name: value}, "reps": {name: n}, "errors": [...], "xcheck": {...}}
//
// and, with -trace-out, the span file of the traced pipeline run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run())
}

// probe carries the run's parameters and collects what the layers emit.
type probe struct {
	seed  uint64
	w     int  // W: scan workers for the parallel layers
	smoke bool // minimum sizes, single repetitions
	tmp   string

	metrics map[string]float64
	reps    map[string]int
	layerS  map[string]float64 // wall time each layer's probes took
	errors  []string
	xcheck  map[string]float64
	data    datasets
}

// emit records a metric. reps is the number of timed repetitions behind a
// timing (the value is their median), or 0 for a count.
func (p *probe) emit(name string, v float64, reps int) {
	if _, dup := p.metrics[name]; dup {
		p.fail("%s emitted twice", name)
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		p.fail("%s is not finite", name)
		return
	}
	p.metrics[name] = v
	p.reps[name] = reps
}

func (p *probe) fail(format string, a ...any) {
	p.errors = append(p.errors, fmt.Sprintf(format, a...))
}

// n picks a size: the real one, or the smoke one.
func (p *probe) n(full, smoke int) int {
	if p.smoke {
		return smoke
	}
	return full
}

// timeMedian runs fn reps times (once under -smoke) and returns the median
// wall time in seconds together with the repetition count.
func (p *probe) timeMedian(reps int, fn func()) (float64, int) {
	if p.smoke {
		reps = 1
	}
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(v)
	if reps%2 == 1 {
		return v[reps/2], reps
	}
	return (v[reps/2-1] + v[reps/2]) / 2, reps
}

// layer runs one layer's probes; a panic or error in one layer is recorded
// and leaves the others' metrics intact.
func (p *probe) layer(name string, fn func() error) {
	t0 := time.Now()
	defer func() {
		p.layerS[name] = time.Since(t0).Seconds()
		if r := recover(); r != nil {
			p.fail("layer %s panicked: %v\n%s", name, r, debug.Stack())
		}
	}()
	if err := fn(); err != nil {
		p.fail("layer %s: %v", name, err)
	}
}

func run() int {
	seed := flag.String("seed", "0xa20", "generator seed (decimal or 0x hex)")
	w := flag.Int("w", 2, "W: workers for the segment/partition/parallel probes")
	smoke := flag.Bool("smoke", false, "minimum sizes and single repetitions")
	traceOut := flag.String("trace-out", "", "write the traced pipeline's spans to this file")
	xcheck := flag.Bool("xcheck", false, "also scan the three cross-check cases at their CLI sizes")
	tmp := flag.String("tmp", "", "scratch directory for files the ckpt and report probes write (default: a new one under the system temp dir)")
	flag.Parse()

	p := &probe{w: *w, smoke: *smoke, metrics: map[string]float64{}, reps: map[string]int{}, layerS: map[string]float64{}}
	var err error
	if p.seed, err = strconv.ParseUint(*seed, 0, 64); err != nil {
		fmt.Fprintf(os.Stderr, "azprobe: -seed: %v\n", err)
		return 2
	}
	if p.tmp, err = os.MkdirTemp(*tmp, "azprobe"); err != nil {
		fmt.Fprintf(os.Stderr, "azprobe: %v\n", err)
		return 1
	}
	defer os.RemoveAll(p.tmp)

	start := time.Now()
	var spans []span
	p.layer("pipeline", func() error {
		var err error
		spans, err = p.pipelineLayer()
		return err
	})
	p.layer("compile", p.compileLayer)
	p.layer("automata+charset", p.automataLayer)
	p.layer("transform+stats", p.transformLayer)
	p.layer("sim", p.simLayer)
	p.layer("dfa", p.dfaLayer)
	p.layer("acmatch+prefilter", p.prefilterLayer)
	p.layer("segment", p.segmentLayer)
	p.layer("partition+parallel", p.partitionLayer)
	p.layer("ckpt", p.ckptLayer)
	p.layer("telemetry+attr+guard+report", p.hooksLayer)
	if *xcheck {
		p.xcheck = map[string]float64{}
		p.layer("xcheck", p.xcheckLayer)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, p, spans); err != nil {
			p.fail("trace: %v", err)
		}
	}
	out := struct {
		Metrics  map[string]float64 `json:"metrics"`
		Reps     map[string]int     `json:"reps"`
		XCheck   map[string]float64 `json:"xcheck,omitempty"`
		Errors   []string           `json:"errors,omitempty"`
		LayerS   map[string]float64 `json:"layer_s"`
		ElapsedS float64            `json:"elapsed_s"`
	}{p.metrics, p.reps, p.xcheck, p.errors, p.layerS, time.Since(start).Seconds()}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "azprobe: %v\n", err)
		return 1
	}
	if len(p.errors) > 0 {
		for _, e := range p.errors {
			fmt.Fprintln(os.Stderr, "azprobe:", e)
		}
		return 1
	}
	return 0
}
