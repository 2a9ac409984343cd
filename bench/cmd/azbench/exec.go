package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"automatazoo/bench/catalog"
)

// invocationTimeout bounds one azoo child; exceeding it is a failed operation.
const invocationTimeout = 120 * time.Second

// sample is what one azoo child cost and printed.
type sample struct {
	wallS  float64
	cpuS   float64 // user + system
	rssMiB float64
	stdout []byte
	err    error // non-nil: non-zero exit, timeout or start failure
}

// runner executes azoo command lines one at a time.
type runner struct {
	azoo    string // built binary
	tmp     string // per-process scratch directory for hooked cases' files
	seed    uint64
	workers int // W
	nextTmp int
}

// args renders the azoo command line of a case at the given -input. A
// hooked case gets its artifact files under dir.
func (r *runner) args(c catalog.Case, input int, dir string) []string {
	a := []string{c.Cmd}
	if c.Cmd == "run" {
		a = append(a, "-bench", c.Kernel, "-engine", c.Engine)
	}
	j := c.Workers
	if j == 0 {
		j = r.workers
	}
	a = append(a,
		"-j", strconv.Itoa(j), "-segments", strconv.Itoa(c.Segments),
		"-scale", strconv.FormatFloat(c.Scale, 'g', -1, 64),
		"-input", strconv.Itoa(input),
		"-seed", strconv.FormatUint(r.seed, 10))
	if c.Cmd == "table1" {
		a = append(a, "-compress")
	}
	if c.Hooked {
		for _, f := range catalog.HookedFlags {
			if strings.HasPrefix(f, "F.") {
				f = filepath.Join(dir, f)
			}
			a = append(a, f)
		}
	}
	return a
}

// reference is the identity-contract command of a case: same kernel, scale,
// input and seed on the sequential NFA engine with nothing attached.
func reference(c catalog.Case) catalog.Case {
	c.Engine, c.Workers, c.Segments, c.Hooked = "nfa", 1, 1, false
	return c
}

// isReference reports whether the case already is its own reference.
func isReference(c catalog.Case) bool { return c == reference(c) }

// exec runs one child to completion and measures it from just before the
// process starts to just after it has been reaped.
func (r *runner) exec(args []string) sample {
	ctx, cancel := context.WithTimeout(context.Background(), invocationTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.azoo, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = nil // discarded: heartbeats go there on hooked cases
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	s := sample{wallS: wall, stdout: out.Bytes()}
	if ctx.Err() != nil {
		err = fmt.Errorf("timed out after %s", invocationTimeout)
	}
	if err != nil {
		s.err = fmt.Errorf("azoo %s: %w", strings.Join(args, " "), err)
	}
	if ps := cmd.ProcessState; ps != nil {
		s.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return s
}

// hookedDir makes a fresh directory for one hooked invocation's files.
func (r *runner) hookedDir() (string, error) {
	r.nextTmp++
	dir := filepath.Join(r.tmp, "h"+strconv.Itoa(r.nextTmp))
	return dir, os.MkdirAll(dir, 0o755)
}

// runCase executes a case at the given input; a hooked case's artifacts are
// checked and removed.
func (r *runner) runCase(c catalog.Case, input int) sample {
	dir := ""
	if c.Hooked {
		d, err := r.hookedDir()
		if err != nil {
			return sample{err: err}
		}
		dir = d
		defer os.RemoveAll(dir)
	}
	s := r.exec(r.args(c, input, dir))
	if s.err == nil && c.Hooked {
		s.err = checkHookedArtifacts(dir)
	}
	return s
}
