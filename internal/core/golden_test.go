package core

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/hooks"
	"automatazoo/internal/mnrl"
	"automatazoo/internal/scan"
	"automatazoo/internal/sim"
	"automatazoo/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/suite.golden")

// goldenConfig is the suite fingerprint's pinned configuration: the
// equivalent of `-scale 0.004 -input 3000 -seed 1` on the CLI.
var goldenConfig = Config{Scale: 0.004, InputBytes: 3000, Seed: 1}

// suiteFingerprint renders one line per kernel: its static shape, the
// SHA-256 of its canonical MNRL export, the SHA-256 of its input stimulus
// (every segment, each preceded by its length as 8 little-endian bytes, so
// segment boundaries count) and each goldenEngines engine's report digest
// (reportDigest). Kernels are fingerprinted GOMAXPROCS at a time; the
// three Random Forest exports (20 MB of JSON each) are most of the time.
func suiteFingerprint(t *testing.T) string {
	bs := All()
	lines := make([]string, len(bs))
	errs := make([]error, len(bs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			lines[i], errs[i] = fingerprint(b)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", bs[i].Name, err)
		}
	}
	return strings.Join(lines, "")
}

func fingerprint(b Benchmark) (string, error) {
	a, segs, err := b.Build(goldenConfig)
	if err != nil {
		return "", err
	}
	export := sha256.New()
	if err := mnrl.WriteAutomaton(export, a, b.Name); err != nil {
		return "", err
	}
	input := sha256.New()
	for _, seg := range segs {
		input.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(seg))))
		input.Write(seg)
	}
	s := stats.Compute(a)
	line := fmt.Sprintf("%s\tstates=%d edges=%d starts=%d reports=%d counters=%d subgraphs=%d mnrl=%x input=%x",
		b.Name, s.States, s.Edges, s.StartStates, s.ReportStates, s.Counters, s.Subgraphs,
		export.Sum(nil), input.Sum(nil))
	want := ""
	for _, g := range goldenEngines {
		d, err := reportDigest(a, segs, g.engine, g.cacheBudget)
		if err != nil {
			return "", fmt.Errorf("%s: %w", g.name, err)
		}
		if d != "-" && want != "" && d != want {
			return "", fmt.Errorf("%s reports %s, %s reports %s", g.name, d, goldenEngines[0].name, want)
		}
		if want == "" {
			want = d
		}
		line += " " + g.name + "=" + d
	}
	return line + "\n", nil
}

// goldenEngines are the engines whose reports every line pins: the three
// scan engines, and a starved dfa, whose one-byte governor cache budget
// runs every component in its fallback.
var goldenEngines = []struct {
	name, engine string
	cacheBudget  int64
}{
	{"nfa", "nfa", 0},
	{"dfa", "dfa", 0},
	{"prefilter", "prefilter", 0},
	{"dfa-starved", "dfa", 1},
}

// reportDigest scans segs, each a fresh stream, on one engine and returns
// its report count and the SHA-256 of its reports as "count:sha": per
// segment its report count, then each (offset, code) in canonical order,
// as 8 little-endian bytes each. It returns "-" when the engine rejects
// the automaton (dfa on counters).
func reportDigest(a *automata.Automaton, segs [][]byte, engine string, cacheBudget int64) (string, error) {
	build, err := scan.Factory(engine)
	if err != nil {
		return "", err
	}
	e, err := build(a)
	if errors.Is(err, dfa.ErrCounters) {
		return "-", nil
	} else if err != nil {
		return "", err
	}
	if cacheBudget > 0 {
		e.Attach(hooks.Set{Governor: guard.New(context.Background(), guard.Budget{MaxCacheBytes: cacheBudget})})
	}
	var reps []sim.Report
	e.SetOnReport(func(r sim.Report) { reps = append(reps, r) })
	h, n := sha256.New(), 0
	var buf []byte
	for _, seg := range segs {
		reps = reps[:0]
		e.Reset()
		if _, err := e.RunChecked(seg); err != nil {
			return "", err
		}
		slices.SortFunc(reps, func(x, y sim.Report) int {
			return cmp.Or(cmp.Compare(x.Offset, y.Offset), cmp.Compare(x.Code, y.Code))
		})
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(reps)))
		for _, r := range reps {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Offset))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Code))
		}
		h.Write(buf)
		n += len(reps)
	}
	return fmt.Sprintf("%d:%x", n, h.Sum(nil)), nil
}

// TestSuiteGolden pins every kernel's automaton, stimulus and reports
// across commits: a generator, loader, compiler or set-up pass that moves
// one state, edge, charset or input byte changes that kernel's line, and
// so does an engine that moves one report. The engines' report digests
// must also agree with each other (fingerprint).
// Regenerate with `make suite-golden` (`go test ./internal/core/ -run
// TestSuiteGolden -update`) only for an intended change, and name the
// lines that moved and why.
func TestSuiteGolden(t *testing.T) {
	got := suiteFingerprint(t)
	path := filepath.Join("testdata", "suite.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
