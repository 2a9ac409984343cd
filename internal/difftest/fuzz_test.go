package difftest

import (
	"testing"

	"automatazoo/internal/automata"
	"automatazoo/internal/randx"
	"automatazoo/internal/regex"
)

// The fuzz targets drive the matrix (every cell but crash-resume) under
// go's native fuzzer. Each keeps its historical name, signature and
// seed→generator mapping, so checked-in corpora still reproduce. Each
// takes a generator seed plus raw input bytes; the seed picks the
// automaton and the segmented cells' count, the bytes are mapped into the
// generator alphabet (fuzzers mutate bytes blindly — left raw, almost
// nothing would ever match and the oracle would compare empty streams).
// Seed corpora under testdata/fuzz/ execute on every plain `go test` run,
// so checked-in reproducers are regression tests even when no -fuzz
// session is running.

const maxFuzzInput = 4096

// fuzzSegments is the segmented cells' count for a fuzz seed.
func fuzzSegments(seed uint64) int { return 2 + int(seed%3) }

// fuzzInput maps raw fuzz bytes into the generator alphabet, keeping a
// fraction raw to exercise the no-match paths.
func fuzzInput(raw []byte, cfg GenConfig) []byte {
	cfg = cfg.normalized()
	if len(raw) > maxFuzzInput {
		raw = raw[:maxFuzzInput]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		if b&0x0f < 13 {
			out[i] = cfg.Alphabet[int(b)%len(cfg.Alphabet)]
		} else {
			out[i] = b
		}
	}
	return out
}

func FuzzSimVsDFA(f *testing.F) {
	f.Add(uint64(1), []byte("abcabcabab"))
	f.Add(uint64(42), []byte("hhhhaaaahhhh"))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		cfg := GenConfig{}
		a := Generate(randx.New(seed), cfg)
		agree(t, check(a, fuzzInput(raw, cfg), fuzzSegments(seed), matrix()))
	})
}

func FuzzCompressPreservesReports(f *testing.F) {
	f.Add(uint64(1), []byte("abcabcabab"))
	// Shape that exposed the fireCounters nondeterminism: counter-bearing
	// automata with chains, dense single-symbol input.
	f.Add(uint64(7), []byte("aaaaaaaaaaaaaaaa"))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		cfg := GenConfig{Counters: 2 + int(seed%3)}
		a := Generate(randx.New(seed), cfg)
		agree(t, check(a, fuzzInput(raw, cfg), fuzzSegments(seed), matrix()))
	})
}

// FuzzSeqVsSegmented picks the segmented cells' count itself: for any
// generated automaton (counter-free or counter-bearing, chosen by the
// seed) and any input, every cell must agree at a segment count and
// deliberately tiny warmup that exercise both the commit and replay
// stitch paths.
func FuzzSeqVsSegmented(f *testing.F) {
	f.Add(uint64(1), uint8(3), []byte("abcabcabab"))
	// Dense single-symbol input: deep frontiers, so tiny warmups misconverge
	// and the replay path runs.
	f.Add(uint64(7), uint8(5), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
	f.Add(uint64(42), uint8(2), []byte("hhhhaaaahhhhaaaahhhh"))
	f.Fuzz(func(t *testing.T, seed uint64, nseg uint8, raw []byte) {
		cfg := GenConfig{Counters: int(seed % 3)} // 0 = speculative, >0 = cascade
		a := Generate(randx.New(seed), cfg)
		agree(t, check(a, fuzzInput(raw, cfg), 2+int(nseg%7), matrix()))
	})
}

// FuzzSimVsPrefilter aims the matrix at the two-stage literal prefilter:
// the seed picks between the anchorable generator (the two-stage path)
// and the generic one (residual pass-through, sometimes with counters),
// so both halves of the engine fuzz from one target.
func FuzzSimVsPrefilter(f *testing.F) {
	f.Add(uint64(1), []byte("abcabcabab"))
	// Dense single-symbol input: chains of one repeated symbol make anchors
	// self-overlap maximally, the report-ordering stress case.
	f.Add(uint64(7), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
	f.Add(uint64(42), []byte("ddddaaaaddddaaaadddd"))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		var a *automata.Automaton
		var input []byte
		if seed%3 != 0 {
			var wit [][]byte
			rng := randx.New(seed)
			a, wit = GenAnchorable(rng.Fork())
			if len(raw) > maxFuzzInput {
				raw = raw[:maxFuzzInput]
			}
			input = make([]byte, len(raw))
			for i, b := range raw {
				if b&0x0f < 13 {
					input[i] = anchorAlphabet[int(b)%len(anchorAlphabet)]
				} else {
					input[i] = b
				}
			}
			// Splice one witness so the anchored path fires even on inputs
			// the mutator drove away from the alphabet.
			if len(wit) > 0 && len(wit[0]) <= len(input) {
				copy(input[rng.Intn(len(input)-len(wit[0])+1):], wit[0])
			}
		} else {
			cfg := GenConfig{Counters: int(seed % 2)}
			a = Generate(randx.New(seed), cfg)
			input = fuzzInput(raw, cfg)
		}
		agree(t, check(a, input, fuzzSegments(seed), matrix()))
	})
}

func FuzzRegexCompile(f *testing.F) {
	f.Add("abc", []byte("xabcx"))
	f.Add("a{2,5}b+", []byte("aaabbb"))
	f.Add("[a-f]+c|de*", []byte("abcdef"))
	f.Add("^(ab|cd){1,3}e", []byte("ababcde"))
	f.Fuzz(func(t *testing.T, pattern string, input []byte) {
		if len(pattern) > 256 {
			return // parser is linear, but keep expansion bounded
		}
		r, err := regex.Compile(pattern, 0, 1)
		if err != nil {
			return // invalid pattern: rejection is the correct outcome
		}
		a := r.Automaton
		if r.Positions != a.NumStates() {
			t.Fatalf("pattern %q: Positions=%d but automaton has %d states",
				pattern, r.Positions, a.NumStates())
		}
		if len(input) > maxFuzzInput {
			input = input[:maxFuzzInput]
		}
		// Glushkov output is counter-free, so every engine applies. The
		// merge cells deliberately do not: a pattern like "a|a" yields two
		// reporting positions sharing one code, which prefix-merge
		// collapses — match-set preserving, but not report-multiset
		// preserving. Only unique-code automata (the generator's) get the
		// multiset bar.
		var cells []cell
		for _, c := range matrix() {
			if !c.merge {
				cells = append(cells, c)
			}
		}
		agree(t, check(a, input, 3, cells))
	})
}
