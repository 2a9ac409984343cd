package stats

import (
	"context"
	"testing"

	"automatazoo/internal/mesh"
	"automatazoo/internal/randx"
	"automatazoo/internal/segment"
	"automatazoo/internal/telemetry"
)

// TestObserveStreamsMatchesSequential asserts the segment-parallel stream
// scan reproduces the single-engine Dynamic profile field-for-field at
// every (workers, segments) combination — the stats-level half of the
// `-segments 1` ≡ `-segments N` guarantee.
func TestObserveStreamsMatchesSequential(t *testing.T) {
	a, err := mesh.Benchmark(mesh.Hamming, 15, 10, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(3)
	streams := [][]byte{
		mesh.RandomDNA(rng, 12_000),
		mesh.RandomDNA(rng, 8_000),
	}
	want := SimulateSegments(a, streams)
	if want.Reports == 0 {
		t.Fatal("kernel produced no reports; test is vacuous")
	}
	for _, segments := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			got, stitch, err := ObserveStreams(context.Background(), a, streams, StreamOptions{
				Workers: workers, Segments: segments,
			})
			if err != nil {
				t.Fatalf("segments=%d workers=%d: %v", segments, workers, err)
			}
			if got != want {
				t.Fatalf("segments=%d workers=%d: Dynamic %+v != sequential %+v",
					segments, workers, got, want)
			}
			if wantSegs := int64(segments * len(streams)); segments > 1 && stitch.Segments != wantSegs {
				t.Fatalf("segments=%d: stitch saw %d segments, want %d", segments, stitch.Segments, wantSegs)
			}
			if segments == 1 && stitch != (segment.Stitch{}) {
				t.Fatalf("segments=1 must keep the unsegmented path, got stitch %+v", stitch)
			}
		}
	}
}

// TestObserveStreamsAutoResolution: the zero Segments value resolves from
// stream size — suite-sized streams stay on the exact sequential path.
func TestObserveStreamsAutoResolution(t *testing.T) {
	a, err := mesh.Benchmark(mesh.Hamming, 8, 10, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(9)
	streams := [][]byte{mesh.RandomDNA(rng, 5_000)}
	want := SimulateSegments(a, streams)
	got, stitch, err := ObserveStreams(context.Background(), a, streams, StreamOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stitch != (segment.Stitch{}) {
		t.Fatalf("a 5 KB stream must not auto-segment, got stitch %+v", stitch)
	}
	if got != want {
		t.Fatalf("Dynamic %+v != sequential %+v", got, want)
	}
}

// TestObserveStreamsRegistryWaste pins the observability split: Dynamic
// stays exact while the registry's sim.symbols includes the speculative
// warmup waste on top of the stream bytes.
func TestObserveStreamsRegistryWaste(t *testing.T) {
	a, err := mesh.Benchmark(mesh.Hamming, 8, 10, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(11)
	streams := [][]byte{mesh.RandomDNA(rng, 20_000)}
	reg := telemetry.NewRegistry()
	got, stitch, err := ObserveStreams(context.Background(), a, streams, StreamOptions{
		Workers: 4, Segments: 4, Hooks: Hooks{Registry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Symbols != 20_000 {
		t.Fatalf("Dynamic.Symbols = %d, want exactly the stream length", got.Symbols)
	}
	engineWork := reg.Counter("sim.symbols").Value()
	if wantMin := int64(20_000) + stitch.WarmupBytes; engineWork < wantMin {
		t.Fatalf("sim.symbols = %d, want >= stream+warmup = %d", engineWork, wantMin)
	}
	if reg.Counter("segment.segments").Value() != 4 {
		t.Fatalf("segment.segments = %d, want 4", reg.Counter("segment.segments").Value())
	}
}
