package segment_test

import (
	"context"
	"slices"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/difftest"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/randx"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/telemetry"
)

// sequential runs one continuous engine over input and returns its stats
// and canonically-ordered reports — the reference every segmented run
// must reproduce exactly.
func sequential(a *automata.Automaton, input []byte) (sim.Stats, []sim.Report) {
	var reps []sim.Report
	e := sim.New(a)
	e.OnReport = func(r sim.Report) { reps = append(reps, r) }
	st := e.Run(input)
	slices.SortFunc(reps, func(x, y sim.Report) int {
		if x.Offset != y.Offset {
			return int(x.Offset - y.Offset)
		}
		if x.Code != y.Code {
			return int(x.Code - y.Code)
		}
		return int(x.State - y.State)
	})
	return st, reps
}

func checkIdentical(t *testing.T, a *automata.Automaton, input []byte, opts segment.Options) segment.Result {
	t.Helper()
	wantStats, wantReps := sequential(a, input)
	var reps []sim.Report
	opts.OnReport = func(r sim.Report) { reps = append(reps, r) }
	res, err := segment.Run(context.Background(), a, input, opts)
	if err != nil {
		t.Fatalf("segment.Run: %v", err)
	}
	if res.Stats != wantStats {
		t.Fatalf("stats diverge: sequential %+v, segmented %+v (stitch %+v)", wantStats, res.Stats, res.Stitch)
	}
	if !slices.Equal(reps, wantReps) {
		t.Fatalf("reports diverge: sequential %d, segmented %d (stitch %+v)", len(wantReps), len(reps), res.Stitch)
	}
	return res
}

// TestSegmentedMatchesSequential is the core byte-identity sweep: random
// counter-free automata, several segment counts and worker counts, a
// deliberately small warmup. Speculation must commit at least some
// segments across the corpus (otherwise the fast path is dead weight),
// and every run must be exact regardless.
func TestSegmentedMatchesSequential(t *testing.T) {
	var total segment.Stitch
	for seed := uint64(1); seed <= 30; seed++ {
		rng := randx.New(seed)
		cfg := difftest.GenConfig{States: 16}
		a := difftest.Generate(rng.Fork(), cfg)
		input := difftest.GenInput(rng.Fork(), cfg, 4096)
		segments := 2 + int(seed%4)
		workers := 1 + int(seed%3)
		res := checkIdentical(t, a, input, segment.Options{
			Segments: segments,
			Workers:  workers,
			Warmup:   64,
		})
		if got := res.Stitch.Segments; got != int64(segments) {
			t.Fatalf("seed %d: resolved %d segments, requested %d", seed, got, segments)
		}
		if res.Stitch.Committed+res.Stitch.Replayed != int64(segments)-1 {
			t.Fatalf("seed %d: stitch accounting broken: %+v", seed, res.Stitch)
		}
		total.Add(res.Stitch)
	}
	if total.Committed == 0 {
		t.Fatalf("speculation never committed across the corpus: %+v", total)
	}
	if total.WarmupBytes == 0 {
		t.Fatalf("no warmup bytes recorded: %+v", total)
	}
}

// TestCounterAutomatonCascades: counter-bearing automata must disable
// speculation (counter values don't converge like frontiers) and cascade
// exactly on the master engine, including counter state carried across
// segment boundaries.
func TestCounterAutomatonCascades(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		rng := randx.New(seed)
		cfg := difftest.GenConfig{States: 12, Counters: 2 + int(seed%3)}
		a := difftest.Generate(rng.Fork(), cfg)
		input := difftest.GenInput(rng.Fork(), cfg, 2048)
		res := checkIdentical(t, a, input, segment.Options{Segments: 3, Workers: 4, Warmup: 64})
		if res.Stitch.Speculated != 0 {
			t.Fatalf("seed %d: counter automaton speculated: %+v", seed, res.Stitch)
		}
		if res.Stitch.Segments != 3 {
			t.Fatalf("seed %d: want 3 segments, got %+v", seed, res.Stitch)
		}
	}
}

// chainAutomaton builds a start-of-data anchored chain of n all-byte
// states reporting at the tail: at offset t < n the true frontier is
// exactly {chain[t]}, which a warmup from the empty frontier can never
// reconstruct (StartOfData only fires at offset 0). Every speculative
// segment must therefore fail validation and replay.
func chainAutomaton(n int) *automata.Automaton {
	b := automata.NewBuilder()
	prev := b.AddSTE(charset.All(), automata.StartOfData)
	for i := 1; i < n; i++ {
		s := b.AddSTE(charset.All(), automata.StartNone)
		b.AddEdge(prev, s)
		prev = s
	}
	b.SetReport(prev, 7)
	return b.MustBuild()
}

// TestLongRangeDependencyForcesReplay pins the replay path: speculation
// that cannot converge must be detected by the frontier validation and
// re-scanned on the master, with the waste counters saying so — and the
// result must still be exact.
func TestLongRangeDependencyForcesReplay(t *testing.T) {
	a := chainAutomaton(50)
	input := make([]byte, 60)
	for i := range input {
		input[i] = byte('a' + i%3)
	}
	res := checkIdentical(t, a, input, segment.Options{Segments: 3, Workers: 3, Warmup: 16})
	if res.Stitch.Replayed != 2 || res.Stitch.Committed != 0 {
		t.Fatalf("want 2 replays, 0 commits, got %+v", res.Stitch)
	}
	if res.Stitch.ReplayBytes != 40 {
		t.Fatalf("want 40 replay bytes, got %+v", res.Stitch)
	}
}

func TestResolve(t *testing.T) {
	cases := []struct {
		n         int64
		requested int
		workers   int
		want      int
	}{
		{200_000, 0, 8, 1},  // suite-sized input stays sequential under auto
		{8 << 20, 0, 4, 4},  // large input fans to the worker count
		{8 << 20, 0, 64, 8}, // ... but never below DefaultAutoMinBytes per segment
		{100, 3, 8, 3},      // explicit count bypasses the auto floor
		{2, 8, 1, 2},        // explicit count clamps to one byte per segment
		{0, 4, 4, 1},        // empty input
		{1, 4, 4, 1},        // single byte
		{8 << 20, 1, 8, 1},  // 1 = off
	}
	for _, c := range cases {
		if got := segment.Resolve(c.n, c.requested, c.workers); got != c.want {
			t.Errorf("Resolve(%d, %d, %d) = %d, want %d", c.n, c.requested, c.workers, got, c.want)
		}
	}
}

func TestBounds(t *testing.T) {
	got := segment.Bounds(10, 3)
	want := []int64{0, 3, 6, 10}
	if !slices.Equal(got, want) {
		t.Fatalf("Bounds(10, 3) = %v, want %v", got, want)
	}
	b := segment.Bounds(1<<20, 7)
	if b[0] != 0 || b[7] != 1<<20 {
		t.Fatalf("Bounds endpoints wrong: %v", b)
	}
	for i := 1; i <= 7; i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("Bounds not strictly increasing: %v", b)
		}
	}
}

func TestEmptyAndTinyInput(t *testing.T) {
	rng := randx.New(9)
	cfg := difftest.GenConfig{States: 8}
	a := difftest.Generate(rng.Fork(), cfg)

	res, err := segment.Run(context.Background(), a, nil, segment.Options{Segments: 4, Workers: 4})
	if err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if res.Stats != (sim.Stats{}) || res.Stitch.Segments != 1 {
		t.Fatalf("empty input: %+v / %+v", res.Stats, res.Stitch)
	}

	checkIdentical(t, a, []byte("abcde"), segment.Options{Segments: 8, Workers: 4, Warmup: 4})
}

// TestStitchCountersPublished pins the registry surface: segment.*
// counters land in the registry (and from there /metrics and manifests),
// and the engine-work counters include warmup bytes.
func TestStitchCountersPublished(t *testing.T) {
	rng := randx.New(3)
	cfg := difftest.GenConfig{States: 16}
	a := difftest.Generate(rng.Fork(), cfg)
	input := difftest.GenInput(rng.Fork(), cfg, 4096)
	reg := telemetry.NewRegistry()
	res, err := segment.Run(context.Background(), a, input, segment.Options{
		Segments: 4, Workers: 2, Warmup: 64, Hooks: segment.Hooks{Registry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("segment.segments").Value(); got != 4 {
		t.Errorf("segment.segments = %d, want 4", got)
	}
	if got := reg.Counter("segment.committed").Value() + reg.Counter("segment.replayed").Value(); got != 3 {
		t.Errorf("committed+replayed = %d, want 3", got)
	}
	if got := reg.Counter("segment.warmup_bytes").Value(); got != res.Stitch.WarmupBytes || got == 0 {
		t.Errorf("segment.warmup_bytes = %d, want %d (nonzero)", got, res.Stitch.WarmupBytes)
	}
	// sim.* counters describe engine work: stream bytes plus warmup plus
	// any replay waste — never less than the stream itself.
	if got := reg.Counter("sim.symbols").Value(); got < int64(len(input)) {
		t.Errorf("sim.symbols = %d, want >= %d", got, len(input))
	}
}

// TestSegmentsAreDeterministicAcrossWorkers: same options, different
// worker counts — identical Result including the stitch tally (worker
// scheduling must not leak into outcomes).
func TestSegmentsAreDeterministicAcrossWorkers(t *testing.T) {
	rng := randx.New(11)
	cfg := difftest.GenConfig{States: 20}
	a := difftest.Generate(rng.Fork(), cfg)
	input := difftest.GenInput(rng.Fork(), cfg, 8192)
	var base segment.Result
	var baseReps []sim.Report
	for i, workers := range []int{1, 2, 8} {
		var reps []sim.Report
		res, err := segment.Run(context.Background(), a, input, segment.Options{
			Segments: 4, Workers: workers, Warmup: 64,
			OnReport: func(r sim.Report) { reps = append(reps, r) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base, baseReps = res, reps
			continue
		}
		if res.Stats != base.Stats || res.Stitch != base.Stitch || !slices.Equal(reps, baseReps) {
			t.Fatalf("workers=%d diverges from workers=1: %+v vs %+v", workers, res.Stitch, base.Stitch)
		}
	}
}

// TestWarmupTripKeepsFrontierSizes: a speculative engine batches the
// sim.frontier sizes of its warmup, so a trip between two warmup chunks
// must still hand them to the histogram: at one worker, the master's
// segment and the first warmup chunk of segment 1 are all it observed.
func TestWarmupTripKeepsFrontierSizes(t *testing.T) {
	rng := randx.New(5)
	cfg := difftest.GenConfig{States: 16}
	a := difftest.Generate(rng.Fork(), cfg)
	input := difftest.GenInput(rng.Fork(), cfg, 60000)
	// Boundary hits at segment.spec: task 0, task 1, then one per warmup
	// chunk of task 1; the 4th trips after one warmup chunk was stepped.
	inj, err := guard.ParseInjector("trip:segment.spec:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	gov := guard.New(context.Background(), guard.Budget{})
	gov.SetInjector(inj)
	reg := telemetry.NewRegistry()
	_, err = segment.Run(context.Background(), a, input, segment.Options{
		Segments: 3, Workers: 1, Hooks: segment.Hooks{Registry: reg, Governor: gov},
	})
	if guard.AsTrip(err) == nil {
		t.Fatalf("want an injected trip, got %v", err)
	}
	want := segment.Bounds(int64(len(input)), 3)[1] + hooks.Chunk
	if got := reg.Histogram("sim.frontier", nil).Count(); got != want {
		t.Errorf("sim.frontier holds %d symbols, want %d (segment 0 and one warmup chunk)", got, want)
	}
}
