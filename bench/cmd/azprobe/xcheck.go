package main

import (
	"fmt"
	"math"
	"time"

	"automatazoo/bench/catalog"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/sim"
)

// xcheckCases are the CLI cases whose marginal stream rate the probe
// reproduces in-process: same kernel, scale, input and seed, scan only. The
// in-process rate leaves out stream generation and emit, so it should be at
// least the CLI's stream_mbps for the case; the gap is that share.
var xcheckCases = [][2]string{
	{"sparse_nfa", "snort"},
	{"dense_nfa", "hamming_22x5"},
	{"prefilter_lit", "clamav"},
}

func (p *probe) xcheckLayer() error {
	for _, wc := range xcheckCases {
		w, ok := catalog.WorkloadByName(wc[0])
		if !ok {
			return fmt.Errorf("no workload %s", wc[0])
		}
		for _, c := range w.Cases {
			if c.Name != wc[1] {
				continue
			}
			k, err := p.kernel(c.Kernel, c.Scale, p.n(c.Input, 4096))
			if err != nil {
				return err
			}
			in := k.streams[0]
			var scan func()
			if c.Engine == "prefilter" {
				e, err := prefilter.New(k.a)
				if err != nil {
					return err
				}
				scan = func() { e.Reset(); sink = e.Run(in) }
			} else {
				e := sim.New(k.a)
				scan = func() { e.Reset(); sink = e.Run(in) }
			}
			// The fastest repetition, as the driver takes for the CLI side.
			s := math.Inf(1)
			for rep := 0; rep < p.n(5, 1); rep++ {
				t0 := time.Now()
				scan()
				s = min(s, time.Since(t0).Seconds())
			}
			p.xcheck[wc[0]+"/"+wc[1]] = float64(len(in)) / s / 1e6
		}
	}
	if len(p.xcheck) != len(xcheckCases) {
		return fmt.Errorf("cross-check found %d of %d cases in the catalogue", len(p.xcheck), len(xcheckCases))
	}
	return nil
}
