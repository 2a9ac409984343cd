package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"automatazoo/internal/mnrl"
	"automatazoo/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/suite.golden")

// goldenConfig is the suite fingerprint's pinned configuration: the
// equivalent of `-scale 0.004 -input 3000 -seed 1` on the CLI.
var goldenConfig = Config{Scale: 0.004, InputBytes: 3000, Seed: 1}

// suiteFingerprint renders one line per kernel: its static shape, the
// SHA-256 of its canonical MNRL export and the SHA-256 of its input
// stimulus (every segment, each preceded by its length as 8 little-endian
// bytes, so segment boundaries count). Kernels are fingerprinted
// GOMAXPROCS at a time; the three Random Forest exports (20 MB of JSON
// each) are most of the time.
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
	return fmt.Sprintf("%s\tstates=%d edges=%d starts=%d reports=%d counters=%d subgraphs=%d mnrl=%x input=%x\n",
		b.Name, s.States, s.Edges, s.StartStates, s.ReportStates, s.Counters, s.Subgraphs,
		export.Sum(nil), input.Sum(nil)), nil
}

// TestSuiteGolden pins every kernel's automaton and stimulus across
// commits: a generator, loader, compiler or set-up pass that moves one
// state, edge, charset or input byte changes that kernel's line.
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
