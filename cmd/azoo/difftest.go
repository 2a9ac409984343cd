package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"automatazoo/internal/difftest"
)

// cmdDifftest soaks the cross-engine differential oracle (internal/difftest)
// over N seeded trials and exits non-zero when any cell diverges; -json
// emits the machine-readable report, whose seeds reproduce each divergence.
func cmdDifftest(args []string) error {
	fs := flag.NewFlagSet("difftest", flag.ExitOnError)
	seeds := fs.Int("seeds", 500, "number of seeded trials")
	states := fs.Int("states", 12, "STE states per generated automaton")
	inputLen := fs.Int("input", 2048, "input bytes per trial")
	seed := fs.Uint64("seed", 1, "base seed (trial i uses seed+i)")
	jsonOut := fs.Bool("json", false, "write the JSON soak report to stdout")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return usageErrorf("difftest: unexpected argument %q", fs.Arg(0))
	}
	if *seeds <= 0 || *states <= 0 || *inputLen <= 0 {
		return usageErrorf("difftest: -seeds, -states and -input must be positive")
	}

	res := difftest.Soak(difftest.SoakConfig{Seeds: *seeds, States: *states, InputLen: *inputLen, Seed: *seed})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Printf("difftest: %d seeds (base %#x)\n", res.Seeds, res.BaseSeed)
		names := make([]string, 0, len(res.Cells))
		for name := range res.Cells {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := res.Cells[name]
			fmt.Printf("  %-28s %6d runs, %8d reports compared\n", name, st.Runs, st.Reports)
		}
		for _, d := range res.Divergences {
			fmt.Printf("  DIVERGENCE seed=%d %s\n", d.Seed, d.String())
		}
		if len(res.Divergences) == 0 {
			fmt.Println("  every cell agrees with the reference")
		}
	}
	if n := len(res.Divergences); n > 0 {
		return divergenceError{n: n}
	}
	return nil
}
