package mesh

import (
	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/sim"
)

// ProfilePoint is one data point of Figure 1: the average number of
// distinct pattern-match events per filter per million input symbols, for
// filters of a given length.
type ProfilePoint struct {
	Kernel            Kernel
	Distance          int
	Length            int
	ReportsPerMillion float64
}

// ProfileConfig parameterizes the Section X profiling methodology.
type ProfileConfig struct {
	Filters      int // N candidate filters per trial (paper: 10)
	InputSymbols int // symbols per trial (paper: 1,000,000)
	Trials       int // trials averaged (paper: 10)
	Seed         uint64
}

// MeasurePoint builds cfg.Filters random filters of the given kernel,
// length, and distance, runs them over random DNA for each trial, and
// returns the mean number of match events per filter per million symbols.
// A "match event" is a (filter, offset) pair: several report states of one
// filter firing at the same offset count once, matching the paper's
// "patterns found" semantics.
func MeasurePoint(kernel Kernel, l, d int, cfg ProfileConfig) (ProfilePoint, error) {
	rng := randx.New(cfg.Seed ^ uint64(l)<<16 ^ uint64(d)<<8 ^ uint64(kernel))
	var total float64
	for trial := 0; trial < cfg.Trials; trial++ {
		trng := rng.Fork()
		b := automata.NewBuilder()
		for i := 0; i < cfg.Filters; i++ {
			if err := kernel.Build(b, RandomDNA(trng, l), d, int32(i)); err != nil {
				return ProfilePoint{}, err
			}
		}
		a, err := b.Build()
		if err != nil {
			return ProfilePoint{}, err
		}
		e := sim.New(a)
		var events int64
		lastOffset := make([]int64, cfg.Filters)
		for i := range lastOffset {
			lastOffset[i] = -1
		}
		e.OnReport = func(r sim.Report) {
			if lastOffset[r.Code] != r.Offset {
				lastOffset[r.Code] = r.Offset
				events++
			}
		}
		e.Run(RandomDNA(trng, cfg.InputSymbols))
		total += float64(events) / float64(cfg.Filters) /
			(float64(cfg.InputSymbols) / 1e6)
	}
	return ProfilePoint{
		Kernel:            kernel,
		Distance:          d,
		Length:            l,
		ReportsPerMillion: total / float64(cfg.Trials),
	}, nil
}

// SelectLength sweeps the filter length upward from minL until the mean
// report rate drops below one per million symbols — the paper's
// profile-driven filter-length selection — returning the chosen length and
// the swept curve (the Figure 1 series for this kernel and distance).
func SelectLength(kernel Kernel, d, minL, maxL int, cfg ProfileConfig) (int, []ProfilePoint, error) {
	var curve []ProfilePoint
	for l := minL; l <= maxL; l++ {
		p, err := MeasurePoint(kernel, l, d, cfg)
		if err != nil {
			return 0, nil, err
		}
		curve = append(curve, p)
		if p.ReportsPerMillion < 1 {
			return l, curve, nil
		}
	}
	return maxL, curve, nil
}

// PaperTableV lists the profile-selected (d, l) pairs the paper reports in
// Table V; the Figure-1 experiment regenerates them.
var PaperTableV = map[Kernel]map[int]int{
	Hamming:     {3: 18, 5: 22, 10: 31},
	Levenshtein: {3: 19, 5: 24, 10: 37},
}
