// Virusscan: the ClamAV benchmark end to end — generate a signature
// database in ClamAV's hex-signature language, compile it to one automaton,
// build a synthetic disk image with two embedded virus bodies, and scan it.
package main

import (
	"fmt"
	"log"

	"automatazoo/internal/clamav"
	"automatazoo/internal/sim"
)

func main() {
	const (
		nSigs     = 2000
		imageSize = 1 << 20 // 1 MiB disk image
		seed      = 0xc1a
	)
	sigs := clamav.Generate(nSigs, seed)
	fmt.Printf("generated %d signatures; e.g.\n  %s = %.60s...\n",
		len(sigs), sigs[0].Name, sigs[0].Hex)

	a, skipped, err := clamav.Compile(sigs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled to %d states, %d edges (%d signatures skipped)\n",
		a.NumStates(), a.NumEdges(), skipped)

	// Embed two viruses, as the paper embeds two VirusSign fragments.
	embedded := []clamav.Signature{sigs[123], sigs[1543]}
	img, err := clamav.DiskImage(imageSize, embedded, seed)
	if err != nil {
		log.Fatal(err)
	}

	e := sim.New(a)
	seen := map[int32]bool{}
	var first []sim.Report // each signature's first report, in stream order
	e.OnReport = func(r sim.Report) {
		if !seen[r.Code] {
			seen[r.Code] = true
			first = append(first, r)
		}
	}
	st := e.Run(img)
	fmt.Printf("\nscanned %d bytes: %d reports, active set %.1f states/symbol\n",
		st.Symbols, st.Reports, st.ActiveAvg())
	for _, r := range first {
		fmt.Printf("  VIRUS %s at offset %d\n", sigs[r.Code].Name, r.Offset)
	}
	if len(seen) == 0 {
		fmt.Println("  no infections found")
	}
}
