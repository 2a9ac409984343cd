package regex_test

import (
	"fmt"

	"automatazoo/internal/regex"
	"automatazoo/internal/sim"
)

// Compile a PCRE-subset pattern into a homogeneous automaton and scan a
// stream with the NFA engine.
func ExampleCompile() {
	res, err := regex.Compile(`do+g`, regex.CaseInsensitive, 7)
	if err != nil {
		panic(err)
	}
	e := sim.New(res.Automaton)
	e.OnReport = func(r sim.Report) {
		fmt.Printf("code %d at offset %d\n", r.Code, r.Offset)
	}
	e.Run([]byte("the DOooG barked"))
	// Output:
	// code 7 at offset 8
}
