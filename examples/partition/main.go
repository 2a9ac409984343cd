// Partition: running a benchmark that exceeds device capacity — the
// paper's prescription for free-form benchmarks ("researchers must develop
// ways to evaluate sequential runs of the partitioned benchmark"). The
// ClamAV signature automaton is bin-packed onto Micron D480-sized slices,
// the disk image is streamed once per slice, and the merged verdict is
// checked against a single-pass scan.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"automatazoo/internal/clamav"
	"automatazoo/internal/partition"
	"automatazoo/internal/sim"
	"automatazoo/internal/spatial"
)

func main() {
	sigs := clamav.Generate(4000, 0x90)
	a, _, err := clamav.Compile(sigs)
	if err != nil {
		log.Fatal(err)
	}
	device := spatial.MicronD480()
	fmt.Printf("benchmark: %d states; device: %s\n", a.NumStates(), device)

	plan, err := partition.Partition(a, device.StateCapacity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned into %d passes at %.1f%% mean utilization\n",
		plan.Passes(), plan.Utilization()*100)
	fmt.Printf("effective stream throughput: %.1f MB/s (one pass: %.1f MB/s)\n",
		plan.EffectiveThroughput(device.SymbolsPerSec(0))/1e6,
		device.SymbolsPerSec(0)/1e6)

	img, err := clamav.DiskImage(1<<19, []clamav.Signature{sigs[7], sigs[3999]}, 0x91)
	if err != nil {
		log.Fatal(err)
	}

	// Sequential multi-pass scan: one worker runs the passes in order.
	merged := map[int32]bool{}
	res, err := plan.RunParallel(context.Background(), 1, img, func(r sim.Report) { merged[r.Code] = true })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmulti-pass scan: %d passes × %d bytes, %d reports\n",
		res.Passes, len(img), res.Reports)
	codes := make([]int32, 0, len(merged))
	for code := range merged {
		codes = append(codes, code)
	}
	slices.Sort(codes)
	for _, code := range codes {
		fmt.Printf("  detected %s\n", sigs[code].Name)
	}

	// Cross-check against a single whole-automaton pass.
	whole := map[int32]bool{}
	e := sim.New(a)
	e.OnReport = func(r sim.Report) { whole[r.Code] = true }
	e.Run(img)
	if len(whole) != len(merged) {
		log.Fatalf("partitioned scan diverged: %d vs %d detections", len(merged), len(whole))
	}
	fmt.Println("\npartitioned verdicts identical to single-pass scan ✓")
}
