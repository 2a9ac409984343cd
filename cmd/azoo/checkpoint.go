package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"automatazoo/internal/ckpt"
	"automatazoo/internal/guard"
)

// cmdResume restores an interrupted `azoo run -checkpoint` from its
// durable checkpoint and scans the remainder through run's own body
// (runScan). The benchmark, engine, and scan shape are rebuilt from the
// checkpoint's metadata; only telemetry and governor flags are accepted
// here (artifact paths belong to this invocation, not the original's).
// With the crash landing on the checkpoint grid (a kill at a save point),
// stdout, -report manifests, and attribution output are byte-identical to
// an uninterrupted run, the dfa engine's cold-cache line excepted (see
// scan.Result.Cache).
func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	tf := telemetryFlags(fs)
	gf := governorFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usageErrorf("usage: azoo resume [flags] <checkpoint-file>")
	}
	path := fs.Arg(0)
	c, src, err := ckpt.Load(path)
	if err != nil {
		return err
	}
	if src != path {
		fmt.Fprintf(os.Stderr, "azoo: checkpoint %s unreadable; resuming from previous generation %s\n", path, src)
	}
	m := c.Meta
	sp := scanSpec{meta: m, ckptPath: path, start: c}
	// A bad name here is a bad checkpoint, not a bad command line: %v drops
	// the usage classification.
	if sp.bench, err = resolveBenchmark(m.Flags["bench"]); err != nil {
		return fmt.Errorf("checkpoint benchmark: %v", err)
	}
	if sp.cfg.Scale, err = strconv.ParseFloat(m.Flags["scale"], 64); err != nil {
		return fmt.Errorf("checkpoint scale: %w", err)
	}
	if sp.cfg.InputBytes, err = strconv.Atoi(m.Flags["input"]); err != nil {
		return fmt.Errorf("checkpoint input: %w", err)
	}
	if sp.cfg.Seed, err = strconv.ParseUint(m.Flags["seed"], 0, 64); err != nil {
		return fmt.Errorf("checkpoint seed: %w", err)
	}
	sess, err := openSession(tf, gf)
	if err != nil {
		return err
	}
	// No explicit budgets on the resume command line: the original run's
	// unconsumed budget remainder (persisted at the save) carries over.
	if sess.Governor == nil && c.Budget != nil {
		sess.Governor = guard.New(context.Background(), *c.Budget)
	}
	return runScan(sess, sp)
}
