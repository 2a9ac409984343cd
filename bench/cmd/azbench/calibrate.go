package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"automatazoo/bench/catalog"
)

// calibrate runs every selected workload on K consecutive seeds — the
// acceptance protocol's shape: another seed each run — and prints, per
// end-to-end metric and workload, the median, the quartiles, their distance
// as a share of the median (the spread) and the largest relative difference
// between any two runs, in the markdown of bench/CALIBRATION.md.
//
// Every repetition's sample goes to <out>/<label>.calibrate.json, so other
// estimators can be tried on the same runs.
//
// A bound is never changed here. A spread above a third of its bound is
// flagged with the bound that would cover it (three times the spread,
// rounded up to a percent), for a human to put into the catalogue.
func calibrate(r *runner, o options) bool {
	workloads := catalog.Workloads
	if o.workload != "" {
		w, ok := catalog.WorkloadByName(o.workload)
		if !ok {
			fmt.Printf("unknown workload %q\n", o.workload)
			return false
		}
		workloads = []catalog.Workload{w}
	}
	k := o.calibrate
	values := map[string]map[string][]float64{} // workload -> metric -> one value per seed
	type seedRun struct {
		Seed string `json:"seed"`
		*workloadResult
	}
	var raw []seedRun
	ok := true
	base := r.seed
	for i := 0; i < k; i++ {
		r.seed = base + uint64(i)
		for _, w := range workloads {
			wr := runWorkload(r, w, time.Duration(o.seconds)*time.Second, false)
			raw = append(raw, seedRun{fmt.Sprintf("%#x", r.seed), wr})
			if wr.Failed > 0 {
				ok = false
				for _, f := range wr.Failures {
					fmt.Printf("seed %#x %s FAILED %s\n", r.seed, w.Name, f)
				}
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range wr.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v)
			}
			fmt.Printf("seed %#x %-14s", r.seed, w.Name)
			for _, m := range catalog.EndToEnd {
				fmt.Printf(" %s=%.4f", m.Name, wr.Metrics[m.Name])
			}
			fmt.Println()
		}
	}
	r.seed = base
	if doc, err := json.Marshal(raw); err != nil {
		fmt.Printf("calibrate: %v\n", err)
	} else if err := os.WriteFile(filepath.Join(o.outDir, o.label+".calibrate.json"), doc, 0o644); err != nil {
		fmt.Printf("calibrate: %v\n", err)
	}

	fmt.Printf("\n%d runs per workload, seeds %#x..%#x, %d s each\n\n", k, base, base+uint64(k-1), o.seconds)
	fmt.Println("| workload | metric | median | q1 | q3 | spread (q3-q1)/median | max pair diff | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	need := map[string]float64{}
	for _, w := range workloads {
		for _, m := range catalog.EndToEnd {
			v := values[w.Name][m.Name]
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			sp := spread(v)
			lo, hi := slices.Min(v), slices.Max(v)
			verdict := "ok"
			if m.Name != "setup_s" || sp > m.Bound { // setup_s is exempt from the spread rule, not from sanity
				switch {
				case sp > m.Bound:
					verdict = "ABOVE BOUND"
				case sp > m.Bound/3:
					verdict = "above bound/3"
				}
			}
			need[m.Name] = math.Max(need[m.Name], sp)
			fmt.Printf("| %s | %s | %.5g | %.5g | %.5g | %.4f | %.4f | %.2f | %s |\n",
				w.Name, m.Name, median(v), q1, q3, sp, (hi-lo)/median(v), m.Bound, verdict)
		}
	}
	fmt.Println("\n| metric | widest spread over workloads | bound | 3 x spread, rounded up |")
	fmt.Println("|---|---|---|---|")
	for _, m := range catalog.EndToEnd {
		fmt.Printf("| %s | %.4f | %.2f | %.2f |\n", m.Name, need[m.Name], m.Bound, math.Ceil(300*need[m.Name])/100)
	}
	return ok
}
