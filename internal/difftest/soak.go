package difftest

import (
	"automatazoo/internal/ckpt"
	"automatazoo/internal/randx"
)

// SoakConfig parameterizes a soak run.
type SoakConfig struct {
	Seeds    int    // number of independent trials
	States   int    // STE count per generated automaton (default 12)
	InputLen int    // input length per trial
	Seed     uint64 // base seed; trial i uses Seed+i
}

// SoakResult is the JSON-serializable outcome of a soak run.
type SoakResult struct {
	Seeds       int                 `json:"seeds"`
	BaseSeed    uint64              `json:"base_seed"`
	Cells       map[string]CellStat `json:"cells"`
	Divergences []Divergence        `json:"divergences"`
}

func (r *SoakResult) record(seed uint64, vs ...verdict) {
	for _, v := range vs {
		st := r.Cells[v.cell]
		st.add(v.stat)
		r.Cells[v.cell] = st
		if v.div != nil {
			v.div.Seed = seed
			r.Divergences = append(r.Divergences, *v.div)
		}
	}
}

// Soak runs cfg.Seeds independent trials. Each trial derives everything
// from randx.New(cfg.Seed + i), so any divergence reproduces from the seed
// recorded on it. Per trial, with N = 2 + i%3 segments:
//
//   - every matrix cell scans a counter-free automaton and a
//     counter-bearing one (including counter→counter chains; the dfa cells
//     are not applicable), then on even trials a deep one whose frontiers
//     outlive the segment warmup (its dense frontiers make it the costliest,
//     so on a quarter of the input) and on odd trials an anchorable one
//     with spliced witness matches (the prefilter's two-stage path proper);
//   - on every sixteenth trial it also scans a dense counter-bearing one,
//     on a quarter of the input: wide and busy enough that sim steps it on
//     its bitset frontier, counters included;
//   - the bit-level trial checks bitnfa against the 8-strided automaton;
//   - one crash-resume cell runs, its engine (nfa, prefilter, dfa) and its
//     (workers, segments) shape rotating with the trial index, on an input
//     several checkpoint intervals long so kills land mid-stream;
//   - on every 256th trial (a dense one) an nfa crash-resume cell also
//     runs on a dense counter-bearing automaton, on an input as long:
//     kills land on the bitset frontier, and the resumed engine restarts
//     on its list. At about 0.4 s a cell it is the soak's costliest;
//   - on every fourth trial (none of those) a dfa-tight crash-resume cell
//     runs on a counter-free automaton, on an input as long, its shape
//     rotating every four trials: its budget runs out mid-stream, so the
//     checkpoints hold the fallback's frontier.
//
// Trials run sequentially: determinism is the point.
func Soak(cfg SoakConfig) SoakResult {
	shapes := [4][2]int{{1, 1}, {4, 1}, {1, 4}, {4, 4}} // crash-resume (workers, segments)
	res := SoakResult{Seeds: cfg.Seeds, BaseSeed: cfg.Seed, Cells: map[string]CellStat{}, Divergences: []Divergence{}}
	cells := matrix()
	// deep automata match almost every byte from almost no all-input
	// start, so their frontiers outlive the warmup and speculation
	// replays; the other generators' frontiers converge within it.
	deep := GenConfig{States: cfg.States, Density: 0.9, StartFrac: 0.01, Alphabet: make([]byte, 256)}
	for b := range deep.Alphabet {
		deep.Alphabet[b] = byte(b)
	}
	// dense automata are sim's bitset shape: 512 states fill its minimum of
	// eight frontier words, and hundreds of them stay enabled.
	dense := GenConfig{States: 512, Density: 0.9, StartFrac: 0.01, ReportFrac: 0.02, Alphabet: deep.Alphabet}
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.Seed + uint64(i)
		rng := randx.New(seed)
		segments := 2 + i%3

		for _, g := range []GenConfig{{States: cfg.States}, {States: cfg.States, Counters: 1 + i%3}} {
			a := Generate(rng.Fork(), g)
			res.record(seed, check(a, GenInput(rng.Fork(), g, cfg.InputLen), segments, cells)...)
		}
		if i%2 == 0 {
			a := Generate(rng.Fork(), deep)
			res.record(seed, check(a, GenInput(rng.Fork(), deep, cfg.InputLen/4), segments, cells)...)
		} else {
			a, wit := GenAnchorable(rng.Fork())
			res.record(seed, check(a, GenAnchorableInput(rng.Fork(), wit, cfg.InputLen), segments, cells)...)
		}
		if i%16 == 1 {
			dense.Counters = 1 + i/16%3
			a := Generate(rng.Fork(), dense)
			res.record(seed, check(a, GenInput(rng.Fork(), dense, cfg.InputLen/4), segments, cells)...)
		}

		ba, bwit := GenerateBit(rng.Fork())
		res.record(seed, checkBit(ba, GenBitInput(rng.Fork(), bwit, min(cfg.InputLen, 256))))

		shape := shapes[i%4]
		c := cell{engine: engines[i%3], workers: shape[0], segmented: shape[1] > 1} // nfa, prefilter, dfa
		crash := GenConfig{States: cfg.States}
		if c.name != "dfa" { // dfa rejects counters
			crash.Counters = (i / 3) % 3
		}
		a := Generate(rng.Fork(), crash)
		input := GenInput(rng.Fork(), crash, 6*ckpt.ChunkAlign+512+256*(i%5))
		interval := int64(ckpt.ChunkAlign) * int64(1+i%2)
		res.record(seed, c.crashResume(a, input, shape[1], interval, seed))

		if i%256 == 1 {
			// Drawn last, so every other draw of the trial is unchanged.
			a := Generate(rng.Fork(), dense)
			input := GenInput(rng.Fork(), dense, len(input))
			res.record(seed, cell{engine: engines[0], workers: 1}.crashResume(a, input, 1, interval, seed))
		}
		if i%4 == 2 {
			// Drawn last as well.
			tight := GenConfig{States: cfg.States}
			a := Generate(rng.Fork(), tight)
			input := GenInput(rng.Fork(), tight, len(input))
			shape := shapes[i/4%4]
			c := cell{engine: engines[4], workers: shape[0], segmented: shape[1] > 1} // dfa-tight
			res.record(seed, c.crashResume(a, input, shape[1], interval, seed))
		}
	}
	return res
}
