// Command azbench is the repository benchmark's driver.
//
// It measures the azoo command line black-box — one child process at a
// time, closed loop — so its end-to-end numbers survive any refactor that
// keeps the CLI byte-identical, and it runs the in-process probe
// (../azprobe) for the per-layer numbers. The workload, case and metric
// tables live in automatazoo/bench/catalog; nothing here imports the
// program under test.
//
//	bash bench/run.sh -seed 0xa20            # everything, human-readable
//	bash bench/run.sh -workload dfa_cache    # one workload
//	bash bench/run.sh -layers                # per-layer probe only
//	bash bench/run.sh -list                  # the catalogue
//	bash bench/run.sh -write-manifest        # regenerate BENCHMARK.json
//	bash bench/run.sh -calibrate 10          # spread of every metric over 10 seeds
//
// The harness form adds -seconds and -trace: with -workload set, the last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics}; -trace 0 reports the end-to-end metrics of that workload,
// -trace 1 the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"automatazoo/bench/catalog"
)

func main() {
	os.Exit(run())
}

type options struct {
	workload      string
	seed          uint64
	seconds       int
	trace         int
	layers        bool
	smoke         bool
	list          bool
	writeManifest bool
	calibrate     int
	label         string
	outDir        string
}

func run() int {
	var o options
	var seed string
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all, then the per-layer probe)")
	flag.StringVar(&seed, "seed", "0xa20", "workload seed, forwarded to azoo -seed and to the probe's generators (decimal or 0x hex)")
	flag.IntVar(&o.seconds, "seconds", catalog.RunSeconds, "seconds each workload measures")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports end-to-end metrics, 1 runs the traced per-layer probe instead")
	flag.BoolVar(&o.layers, "layers", false, "run only the per-layer probe")
	flag.BoolVar(&o.smoke, "smoke", false, "one tiny case per workload and every probe at minimum size: checks plumbing, not numbers")
	flag.BoolVar(&o.list, "list", false, "print the workload, case and metric catalogue")
	flag.BoolVar(&o.writeManifest, "write-manifest", false, "regenerate BENCHMARK.json from the catalogue")
	flag.IntVar(&o.calibrate, "calibrate", 0, "run every workload on K consecutive seeds and print each metric's spread against its bound")
	flag.StringVar(&o.label, "label", "run", "name of the result files")
	flag.StringVar(&o.outDir, "out", "", "directory for result files (default .bench_build/out under the repository root)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "azbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	var err error
	if o.seed, err = strconv.ParseUint(seed, 0, 64); err != nil {
		fmt.Fprintf(os.Stderr, "azbench: -seed: %v\n", err)
		return 2
	}
	if err := catalog.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "azbench: catalogue: %v\n", err)
		return 2
	}
	switch {
	case o.list:
		printCatalogue(os.Stdout)
		return 0
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(os.Stderr, "azbench: -trace must be 0 or 1")
		return 2
	case o.seconds < 1:
		fmt.Fprintln(os.Stderr, "azbench: -seconds must be at least 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "azbench: %v\n", err)
		return 2
	}
	if o.writeManifest {
		doc, err := catalog.Manifest()
		if err == nil {
			err = os.WriteFile(filepath.Join(root, "BENCHMARK.json"), doc, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "azbench: %v\n", err)
			return 1
		}
		return 0
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, ".bench_build", "out")
	}
	ok, err := benchmark(root, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "azbench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// findRoot locates the repository root: the directory that holds both the
// program (cmd/azoo) and this benchmark (bench/go.mod), at or above the
// working directory. "go run -C bench" starts the driver inside bench.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if isFile(filepath.Join(dir, "bench", "go.mod")) && isFile(filepath.Join(dir, "cmd", "azoo", "main.go")) {
			return dir, nil
		}
		if dir == filepath.Dir(dir) {
			break
		}
	}
	return "", fmt.Errorf("no repository root at or above %s: need cmd/azoo (the program under test) beside bench/", wd)
}

func isFile(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.Mode().IsRegular()
}

// environment is recorded in every result file.
type environment struct {
	NProc      int     `json:"nproc"`
	W          int     `json:"w"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load_avg_1m"`
	Seed       string  `json:"seed"`
	Seconds    int     `json:"seconds"`
	When       string  `json:"when"`
}

func captureEnv(o options) environment {
	n := runtime.NumCPU()
	e := environment{
		NProc: n, W: min(n, 4), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Seed: fmt.Sprintf("%#x", o.seed), Seconds: o.seconds,
		When: time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64) // best effort: 0 when unreadable
		}
	}
	return e
}

// build compiles a main package into .bench_build/bin. The Go build cache
// makes a repeat build a sub-second no-op.
func build(root, dir, pkg, name string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", name)
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return bin, nil
}

// result is the file written to <out>/<label>.json.
type result struct {
	Env       environment        `json:"env"`
	Workloads []*workloadResult  `json:"workloads,omitempty"`
	Layers    *layersResult      `json:"layers,omitempty"`
	Bounds    map[string]float64 `json:"bounds"`
}

// totals sums the operations of everything a result holds.
func (res *result) totals() (attempted, failed int) {
	for _, w := range res.Workloads {
		attempted += w.Attempted
		failed += w.Failed
	}
	if res.Layers != nil {
		attempted += res.Layers.Attempted
		failed += res.Layers.Failed
	}
	return attempted, failed
}

// newRunner builds the program under test and a scratch directory for the
// files its hooked runs write; cleanup removes the directory.
func newRunner(root string, o options) (r *runner, env environment, cleanup func(), err error) {
	azoo, err := build(root, root, "./cmd/azoo", "azoo")
	if err != nil {
		return nil, env, nil, err
	}
	parent := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, env, nil, err
	}
	tmp, err := os.MkdirTemp(parent, "run")
	if err != nil {
		return nil, env, nil, err
	}
	env = captureEnv(o)
	return &runner{azoo: azoo, tmp: tmp, seed: o.seed, workers: env.W}, env, func() { os.RemoveAll(tmp) }, nil
}

// measure runs what the options select: the named workload (or all), and
// the per-layer probe when the options ask for it.
func measure(root string, r *runner, env environment, o options) (*result, error) {
	var selected []catalog.Workload
	switch {
	case o.layers:
	case o.workload != "":
		w, found := catalog.WorkloadByName(o.workload)
		if !found {
			return nil, fmt.Errorf("unknown workload %q (see -list)", o.workload)
		}
		if o.trace == 0 {
			selected = []catalog.Workload{w}
		}
	default:
		selected = catalog.Workloads
	}
	res := &result{Env: env, Bounds: map[string]float64{}}
	for _, m := range catalog.EndToEnd {
		res.Bounds[m.Name] = m.Bound
	}
	for _, w := range selected {
		if o.smoke {
			w.Cases = w.Cases[:1]
		}
		wr := runWorkload(r, w, time.Duration(o.seconds)*time.Second, o.smoke)
		res.Workloads = append(res.Workloads, wr)
		printWorkload(wr)
	}
	if o.layers || o.workload == "" || o.trace == 1 {
		res.Layers = runLayers(root, r, o)
		printLayers(res.Layers)
	}
	return res, nil
}

// benchmark builds the program, measures, prints and stores the result.
// ok is false when any operation failed or any metric is missing.
func benchmark(root string, o options) (ok bool, err error) {
	r, env, cleanup, err := newRunner(root, o)
	if err != nil {
		return false, err
	}
	defer cleanup()
	// The probe writes its trace here before the result file is written.
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	if o.calibrate > 0 {
		return calibrate(r, o), nil
	}
	res, err := measure(root, r, env, o)
	if err != nil {
		return false, err
	}
	if err := writeResult(o, res); err != nil {
		return false, err
	}
	attempted, failed := res.totals()

	// Harness form: one workload, one JSON object as the last line.
	if o.workload != "" {
		want, metrics := catalog.EndToEnd, map[string]float64{}
		if o.trace == 1 {
			want, metrics = catalog.PerLayer(), res.Layers.Metrics
		} else {
			metrics = res.Workloads[0].Metrics
		}
		line, complete := harnessLine(want, metrics, attempted, failed)
		fmt.Println(line)
		return complete && failed == 0, nil
	}
	crossCheck(res)
	fmt.Printf("\nattempted %d, failed %d, fail_ratio %.4f\n", attempted, failed, float64(failed)/float64(max(attempted, 1)))
	return failed == 0 && (res.Layers == nil || len(res.Layers.Absent) == 0), nil
}

// harnessLine renders the result object the harness reads. A metric that is
// missing or not finite is left out and makes the run incorrect.
func harnessLine(want []catalog.Metric, got map[string]float64, attempted, failed int) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]value{}}
	complete := true
	for _, m := range want {
		v, have := got[m.Name]
		if !have || math.IsNaN(v) || math.IsInf(v, 0) {
			complete = false
			continue
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	out.Correct = complete && failed == 0
	line, err := json.Marshal(out)
	if err != nil { // cannot happen: every value was checked finite
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`, false
	}
	return string(line), complete
}

// writeResult stores the result (and the probe's trace, which the probe
// already wrote next to it) under the output directory. NaN never reaches
// the encoder: absent metrics are listed by name instead.
func writeResult(o options, res *result) error {
	for _, w := range res.Workloads {
		for k, v := range w.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				delete(w.Metrics, k)
			}
		}
	}
	doc, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, o.label+".json"), append(doc, '\n'), 0o644)
}

func printWorkload(w *workloadResult) {
	fmt.Printf("\n== %s: %d reps in %.1fs, %d/%d operations failed\n", w.Name, w.Reps, w.MeasuredS, w.Failed, w.Attempted)
	fmt.Printf("   %-22s %9s %9s %9s %9s %11s\n", "case", "run_s", "twin_s", "cpu_s", "rss_MiB", "stream_MB/s")
	for _, c := range w.Cases {
		fmt.Printf("   %-22s %9.4f %9.4f %9.4f %9.1f %11.4f\n", c.Name, c.RunS, c.TwinS, c.CPUS, c.RSSMiB, c.StreamMBps)
	}
	for _, m := range catalog.EndToEnd {
		fmt.Printf("%-14s %12.5f %-5s (%s is better, bound %.2f)\n", m.Name, w.Metrics[m.Name], m.Unit, m.Better, m.Bound)
	}
	fmt.Printf("%-14s %12.5f ratio\n", "fail_ratio", w.FailRatio)
	for _, f := range w.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
}

func printCatalogue(w *os.File) {
	fmt.Fprintf(w, "command: %s\n", strings.Join(catalog.Command, " "))
	fmt.Fprintf(w, "one run measures %d s; W = min(nproc, 4); every stream case also runs its twin at -input %d\n\n", catalog.RunSeconds, catalog.TwinInput)
	for _, wl := range catalog.Workloads {
		fmt.Fprintf(w, "workload %s\n  why:   %s\n  gates: %s\n", wl.Name, wl.Why, wl.Gates)
		r := &runner{seed: 0, workers: 0}
		for _, c := range wl.Cases {
			args := strings.Join(r.args(c, c.Input, "$TMP"), " ")
			args = strings.Replace(args, "-j 0", "-j W", 1)
			args = strings.Replace(args, "-seed 0", "-seed S", 1)
			regime := ""
			if c.Regime != "" {
				regime = "   [" + c.Regime + "]"
			}
			fmt.Fprintf(w, "  %-20s azoo %s%s\n", c.Name, args, regime)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "end-to-end metrics (every workload):")
	for _, m := range catalog.EndToEnd {
		fmt.Fprintf(w, "  %-12s %-5s %-6s bound %.2f  %s\n", m.Name, m.Unit, m.Better, m.Bound, catalog.EndToEndDefinition[m.Name])
	}
	fmt.Fprintln(w, "  fail_ratio   failed/attempted azoo invocations, twins and references included; carried by the result's attempted/failed fields")
	pl := catalog.PerLayer()
	fmt.Fprintf(w, "\nper-layer metrics (%d):\n", len(pl))
	for _, m := range pl {
		kind := ""
		if m.Count {
			kind = " [count: repeats exactly]"
		}
		fmt.Fprintf(w, "  %-40s %-6s %-6s %-18s -> %s%s\n", m.Name, m.Unit, m.Better, m.Layer, m.Moves, kind)
	}
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
