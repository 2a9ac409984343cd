package difftest

import (
	"context"
	"errors"
	"fmt"

	"automatazoo/internal/automata"
	"automatazoo/internal/bitnfa"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/scan"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/transform"
)

// warmup is the speculative pre-scan window of every segmented cell: tiny
// relative to the inputs, so speculation both commits and replays.
const warmup = 48

// engine is one value of the engine axis.
type engine struct {
	name        string
	new         func(*automata.Automaton) (segment.Engine, error)
	exact       bool  // keeps the reference's full sim.Stats
	cacheBudget int64 // > 0: a degraded dfa, each scan under a governor with this cache budget
}

func factory(name string) func(*automata.Automaton) (segment.Engine, error) {
	f, err := scan.Factory(name)
	if err != nil {
		panic(err) // unreachable: the names are scan's own
	}
	return f
}

// The degraded dfa cells: dfa-starved degrades every component at its
// first construction, offset 0 included; dfa-tight's budget runs out
// mid-stream, so warm frontiers cross into the fallback.
var engines = []engine{
	{name: "nfa", new: factory("nfa"), exact: true},
	{name: "prefilter", new: factory("prefilter"), exact: true},
	{name: "dfa", new: factory("dfa")},
	{name: "dfa-starved", new: factory("dfa"), cacheBudget: 1},
	{name: "dfa-tight", new: factory("dfa"), cacheBudget: 4096},
}

// cell is one engine × transform × execution mode.
type cell struct {
	engine
	merge     bool // scan transform.PrefixMerge(a) instead of a
	workers   int
	segmented bool // -segments N; otherwise -segments 1
}

func (c cell) String() string {
	t, s := "none", "1"
	if c.merge {
		t = "merge"
	}
	if c.segmented {
		s = "N"
	}
	return fmt.Sprintf("%s/%s/j%d-s%s", c.name, t, c.workers, s)
}

// reference is the cell every other cell is compared with.
var reference = cell{engine: engines[0], workers: 1}

// matrix lists every cell, the reference cell first.
func matrix() []cell {
	var cells []cell
	for _, e := range engines {
		for _, merge := range []bool{false, true} {
			for _, segmented := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					cells = append(cells, cell{engine: e, merge: merge, workers: workers, segmented: segmented})
				}
			}
		}
	}
	return cells
}

// outcome is one cell's scan: its reports in emission order, its Result.
type outcome struct {
	events []Event
	res    scan.Result
}

// run scans input through scan.Run as the cell says, at segments segments
// when the cell is segmented. sp carries whatever else the scan needs
// (the crash-resume cell's registry, governor, saver and start); a
// degraded dfa cell's governor goes in its hooks, which scan.Run attaches,
// unless sp brings one (the crash-resume cell's, which carries the cache
// budget and the fault injector).
func (c cell) run(a *automata.Automaton, input []byte, segments int, sp scan.Spec) (outcome, error) {
	if c.cacheBudget > 0 && sp.Governor == nil {
		sp.Governor = guard.New(context.Background(), guard.Budget{MaxCacheBytes: c.cacheBudget})
	}
	if c.merge {
		a, _ = transform.PrefixMerge(a)
	}
	if !c.segmented {
		segments = 1
	}
	var o outcome
	var err error
	sp.NewEngine, sp.Workers, sp.Segments, sp.Warmup = c.new, c.workers, segments, warmup
	sp.OnReport = func(r sim.Report) { o.events = append(o.events, Event{Offset: r.Offset, Code: r.Code}) }
	o.res, err = scan.Run(context.Background(), a, [][]byte{input}, sp)
	return o, err
}

// CellStat is one cell's coverage across a soak: the work it compared and
// the engine paths it is known to have taken.
type CellStat struct {
	Runs      int   `json:"runs"`                // applicable runs compared with the reference
	Reports   int64 `json:"reports"`             // reference reports those runs compared
	Committed int64 `json:"committed,omitempty"` // speculative segments committed (Result.Stitch)
	Replayed  int64 `json:"replayed,omitempty"`  // speculative segments replayed
	Fallbacks int64 `json:"fallbacks,omitempty"` // dfa components degraded to the fallback (Result.Cache)
	Late      int64 `json:"late,omitempty"`      // runs in which one degraded after offset 0
	Crashes   int   `json:"crashes,omitempty"`   // crash-resume kills survived
}

func (s *CellStat) add(o CellStat) {
	s.Runs += o.Runs
	s.Reports += o.Reports
	s.Committed += o.Committed
	s.Replayed += o.Replayed
	s.Fallbacks += o.Fallbacks
	s.Late += o.Late
	s.Crashes += o.Crashes
}

// verdict is one applicable cell's comparison with the reference.
type verdict struct {
	cell string
	stat CellStat
	div  *Divergence // nil when the cell agrees
}

// check scans a and input through every cell of cells and compares each
// with cells[0], the reference. segments is N, the segmented cells' count.
func check(a *automata.Automaton, input []byte, segments int, cells []cell) []verdict {
	ref, err := cells[0].run(a, input, segments, scan.Spec{})
	if err != nil {
		return []verdict{{cell: cells[0].String(), div: failed(cells[0].String(), err)}}
	}
	canon(ref.events)
	var out []verdict
	for i, c := range cells {
		got, err := ref, error(nil)
		if i > 0 {
			got, err = c.run(a, input, segments, scan.Spec{})
			canon(got.events)
		}
		if errors.Is(err, dfa.ErrCounters) {
			continue
		}
		v := verdict{cell: c.String(), stat: CellStat{Runs: 1, Reports: int64(len(ref.events)),
			Committed: got.res.Stitch.Committed, Replayed: got.res.Stitch.Replayed}}
		if c := got.res.Cache; c != nil {
			v.stat.Fallbacks = int64(c.Fallbacks)
			if c.FallbackBytes < v.stat.Fallbacks*int64(len(input)) {
				v.stat.Late = 1
			}
		}
		if err != nil {
			v.div = failed(v.cell, err)
		} else {
			v.div = compare(v.cell, c.exact && !c.merge, ref, got)
		}
		out = append(out, v)
	}
	return out
}

func failed(cell string, err error) *Divergence {
	return &Divergence{Cell: cell, Offset: -1, Detail: err.Error()}
}

// compare applies the comparison rules to canonical outcomes: the report
// multisets first, so a divergence names its offset, then the statistics —
// all of them when exact, otherwise Symbols and Reports.
func compare(cell string, exact bool, ref, got outcome) *Divergence {
	if d := diffStreams(cell, ref.events, got.events); d != nil {
		return d
	}
	want, have := ref.res.Stats, got.res.Stats
	if !exact {
		want = sim.Stats{Symbols: want.Symbols, Reports: want.Reports}
		have = sim.Stats{Symbols: have.Symbols, Reports: have.Reports}
	}
	if want != have {
		return &Divergence{Cell: cell, Offset: -1,
			Detail: fmt.Sprintf("stats mismatch: reference %+v, cell %+v (stitch %+v)", want, have, got.res.Stitch)}
	}
	return nil
}

// checkBit is the bit-level trial: bitnfa.Simulate, the bit-level
// reference interpreter, against the reference cell scanning Stride8's
// byte automaton. Stride8's mid-byte-report error is a divergence: the
// generator only emits byte-aligned patterns.
func checkBit(ba *bitnfa.Automaton, input []byte) verdict {
	var ref outcome
	for _, oc := range ba.Simulate(input) {
		ref.events = append(ref.events, Event{Offset: oc[0], Code: int32(oc[1])})
	}
	canon(ref.events)
	ref.res.Stats = sim.Stats{Symbols: int64(len(input)), Reports: int64(len(ref.events))}
	v := verdict{cell: "bitnfa", stat: CellStat{Runs: 1, Reports: ref.res.Stats.Reports}}
	strided, err := ba.Stride8()
	var got outcome
	if err == nil {
		got, err = reference.run(strided, input, 1, scan.Spec{})
	}
	if err != nil {
		v.div = failed(v.cell, err)
	} else {
		canon(got.events)
		v.div = compare(v.cell, false, ref, got)
	}
	return v
}
