//go:build azprobe_broken

package main

// Built only with -tags azprobe_broken: stands in for a refactor that broke
// the probe, to show that the driver still reports every end-to-end metric
// and lists the per-layer ones as absent:
//
//	GOFLAGS=-tags=azprobe_broken bash bench/run.sh -seed 0xa20
var _ = anInternalEntryPointThatNoLongerExists
