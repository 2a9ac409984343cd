package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"automatazoo/bench/catalog"
)

// runLine matches the first stdout line of "azoo run" on every engine.
var runLine = regexp.MustCompile(`^(.+): (\d+) states, (\d+) symbols, (\d+) reports`)

// counts extracts the kernel name and the state, symbol and report counts
// from the first line of a run's stdout.
func counts(stdout []byte) (fields [4]string, err error) {
	line, _, _ := bytes.Cut(stdout, []byte("\n"))
	m := runLine.FindSubmatch(line)
	if m == nil {
		return fields, fmt.Errorf("unrecognised run output %q", firstBytes(line, 80))
	}
	for i := range fields {
		fields[i] = string(m[i+1])
	}
	return fields, nil
}

// checkOutput compares a measured run's stdout with its reference's.
//
// nfa and prefilter cases at any -j/-segments, hooked or not, must be
// byte-identical to the sequential bare NFA run (the repository's identity
// contract). The lazy-DFA engine prints its own second line, so dfa cases
// must agree on kernel, states, symbols and reports. table1 must print 25
// rows under its two header lines.
func checkOutput(c catalog.Case, got, ref []byte) error {
	switch {
	case c.Cmd == "table1":
		if rows := strings.Count(string(got), "\n") - 2; rows != len(catalog.Kernels) {
			return fmt.Errorf("table1 printed %d rows, want %d", rows, len(catalog.Kernels))
		}
		if !bytes.Equal(got, ref) {
			return errors.New("table1 output differs between repetitions")
		}
	case c.Engine == "dfa":
		g, err := counts(got)
		if err != nil {
			return err
		}
		r, err := counts(ref)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		if g != r {
			return fmt.Errorf("dfa run printed %v, sequential NFA reference %v", g, r)
		}
	default:
		if _, err := counts(got); err != nil {
			return err
		}
		if !bytes.Equal(got, ref) {
			return fmt.Errorf("stdout %q differs from sequential NFA reference %q", firstBytes(got, 120), firstBytes(ref, 120))
		}
	}
	return nil
}

// checkHookedArtifacts verifies what a hooked, checkpointed run must leave
// behind: a parseable report manifest and metrics snapshot, and no
// checkpoint generation (a completed run removes both).
func checkHookedArtifacts(dir string) error {
	for _, name := range []string{"F.report.json", "F.metrics.json"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("hooked run: %w", err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("hooked run left unparseable %s: %w", name, err)
		}
		if len(doc) == 0 {
			return fmt.Errorf("hooked run left empty %s", name)
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "F.ckpt*"))
	if err != nil {
		return err
	}
	if len(left) > 0 {
		return fmt.Errorf("completed run left checkpoint files behind: %v", left)
	}
	return nil
}

func firstBytes(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
