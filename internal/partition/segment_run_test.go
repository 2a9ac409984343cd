package partition

import (
	"context"
	"sort"
	"testing"

	"automatazoo/internal/guard"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
)

// canonSort imposes one total order on a report stream so two streams can
// be compared as multisets (segmented runs reorder same-offset ties).
func canonSort(reps []sim.Report) {
	sort.Slice(reps, func(x, y int) bool {
		if reps[x].Offset != reps[y].Offset {
			return reps[x].Offset < reps[y].Offset
		}
		if reps[x].Code != reps[y].Code {
			return reps[x].Code < reps[y].Code
		}
		return reps[x].State < reps[y].State
	})
}

// TestRunSegmentedMatchesSequential: the Segments > 1 path must reproduce
// the sequential aggregate exactly — same Result scalars and same report
// multiset with ascending offsets — at every (workers, segments)
// combination, with the stitch accounting for passes × segments.
func TestRunSegmentedMatchesSequential(t *testing.T) {
	for _, k := range kernels(t) {
		k := k
		t.Run(k.name, func(t *testing.T) {
			p, err := Partition(k.a, k.a.NumStates()/5+1)
			if err != nil {
				t.Fatal(err)
			}
			want, seqRes := canonical(t, p, k.input)
			if len(want) == 0 {
				t.Fatal("kernel produced no reports; test is vacuous")
			}
			canonSort(want)
			var speculated int64
			for _, segments := range []int{2, 5} {
				for _, workers := range []int{1, 4} {
					var got []sim.Report
					res, err := p.Run(context.Background(), k.input, RunOptions{
						Workers:  workers,
						Segments: segments,
						OnReport: func(r sim.Report) { got = append(got, r) },
					})
					if err != nil {
						t.Fatalf("segments=%d workers=%d: %v", segments, workers, err)
					}
					if res.Passes != seqRes.Passes || res.Symbols != seqRes.Symbols ||
						res.Reports != seqRes.Reports || res.Enabled != seqRes.Enabled ||
						res.Active != seqRes.Active || res.CounterPulses != seqRes.CounterPulses {
						t.Fatalf("segments=%d workers=%d: Result %+v != sequential %+v",
							segments, workers, res, seqRes)
					}
					if got := res.Stitch.Segments; got != int64(p.Passes()*segments) {
						t.Fatalf("segments=%d workers=%d: stitch saw %d segments, want %d",
							segments, workers, got, p.Passes()*segments)
					}
					for i := 1; i < len(got); i++ {
						if got[i].Offset < got[i-1].Offset {
							t.Fatalf("segments=%d workers=%d: offsets not ascending at %d",
								segments, workers, i)
						}
					}
					canonSort(got)
					if len(got) != len(want) {
						t.Fatalf("segments=%d workers=%d: %d reports, want %d",
							segments, workers, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("segments=%d workers=%d: report %d = %+v, want %+v",
								segments, workers, i, got[i], want[i])
						}
					}
					speculated += res.Stitch.Speculated
				}
			}
			if k.name == "hamming" && speculated == 0 {
				t.Fatal("counter-free kernel never speculated; segments ran dead-weight")
			}
		})
	}
}

// TestRunSegmentedGovernedTrip: an input-byte budget trips a segmented
// partitioned run mid-stream with the same structured class as the
// unsegmented path, and the partial Result stays truncated.
func TestRunSegmentedGovernedTrip(t *testing.T) {
	k := kernels(t)[0]
	p, err := Partition(k.a, k.a.NumStates()/5+1)
	if err != nil {
		t.Fatal(err)
	}
	gov := guard.New(context.Background(), guard.Budget{MaxInputBytes: 8 << 10})
	res, err := p.Run(context.Background(), k.input, RunOptions{
		Workers: 4, Segments: 4, Hooks: segment.Hooks{Governor: gov},
	})
	trip := guard.AsTrip(err)
	if trip == nil || trip.Budget != guard.BudgetInputBytes {
		t.Fatalf("want input-bytes trip, got %v", err)
	}
	if res.Symbols >= int64(p.Passes())*int64(len(k.input)) {
		t.Fatalf("tripped run consumed all %d passes of the stream (%d symbols)", p.Passes(), res.Symbols)
	}
}
