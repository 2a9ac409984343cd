package rf

import (
	"testing"

	"automatazoo/internal/charset"
	"automatazoo/internal/randx"
)

func smallVariant() Variant {
	return Variant{Name: "T", Features: 120, MaxLeaves: 60, Trees: 8, Levels: 2}
}

func trainSmall(t *testing.T, v Variant) (*Model, Dataset, Dataset) {
	t.Helper()
	ds := GenerateDataset(800, 42)
	train, test := ds.Split(0.75)
	m, err := Train(train, v, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m, train, test
}

func TestDatasetShape(t *testing.T) {
	ds := GenerateDataset(100, 1)
	if len(ds.Samples) != 100 {
		t.Fatalf("n=%d", len(ds.Samples))
	}
	var classes [NumClasses]int
	for _, s := range ds.Samples {
		if len(s.Pixels) != NumFeatures {
			t.Fatalf("pixels=%d", len(s.Pixels))
		}
		if s.Label < 0 || s.Label >= NumClasses {
			t.Fatalf("label=%d", s.Label)
		}
		classes[s.Label]++
	}
	for c, n := range classes {
		if n != 10 {
			t.Fatalf("class %d count=%d (classes should cycle)", c, n)
		}
	}
}

func TestDatasetDeterminism(t *testing.T) {
	a := GenerateDataset(50, 9)
	b := GenerateDataset(50, 9)
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatal("labels differ across same-seed generations")
		}
		for p := range a.Samples[i].Pixels {
			if a.Samples[i].Pixels[p] != b.Samples[i].Pixels[p] {
				t.Fatal("pixels differ across same-seed generations")
			}
		}
	}
}

func TestFeatureSelection(t *testing.T) {
	ds := GenerateDataset(400, 3)
	fm := SelectFeatures(ds, 64, 2)
	if fm.NumSelected() != 64 {
		t.Fatalf("selected=%d", fm.NumSelected())
	}
	for i := 1; i < len(fm.Features); i++ {
		if fm.Features[i] <= fm.Features[i-1] {
			t.Fatal("features not in ascending raster order")
		}
	}
	q := fm.Quantize(ds.Samples[0].Pixels)
	if len(q) != 64 {
		t.Fatalf("quantized len=%d", len(q))
	}
	for _, v := range q {
		if v > 1 {
			t.Fatalf("level %d out of range for Q=2", v)
		}
	}
}

func TestTreeTrainingSeparatesData(t *testing.T) {
	// A trivially separable dataset: feature 0 determines the class.
	X := [][]uint8{{0, 1}, {0, 0}, {1, 1}, {1, 0}, {0, 1}, {1, 0}}
	y := []int{0, 0, 1, 1, 0, 1}
	tree := TrainTree(X, y, 2, TrainConfig{MaxLeaves: 4, MTry: 2, MinSamples: 1}, randx.New(5))
	for i := range X {
		if got := tree.Predict(X[i]); got != y[i] {
			t.Fatalf("sample %d: predict=%d want %d", i, got, y[i])
		}
	}
	if tree.Leaves() < 2 {
		t.Fatal("tree did not split")
	}
}

func TestTreeLeafBudget(t *testing.T) {
	v := smallVariant()
	m, _, _ := trainSmall(t, v)
	for i, tree := range m.Trees {
		if l := tree.Leaves(); l > v.MaxLeaves {
			t.Fatalf("tree %d leaves=%d exceeds budget %d", i, l, v.MaxLeaves)
		}
	}
}

func TestPathsPartitionSpace(t *testing.T) {
	m, _, test := trainSmall(t, smallVariant())
	// Every quantized sample must satisfy exactly one path per tree.
	for _, tree := range m.Trees {
		paths := tree.Paths(m.FM.NumSelected(), m.FM.Levels)
		if len(paths) != tree.Leaves() {
			t.Fatalf("paths=%d leaves=%d", len(paths), tree.Leaves())
		}
		for _, s := range test.Samples[:40] {
			x := m.FM.Quantize(s.Pixels)
			matches := 0
			var cls int
			for _, p := range paths {
				ok := true
				for f := range x {
					if x[f] < p.Lo[f] || x[f] > p.Hi[f] {
						ok = false
						break
					}
				}
				if ok {
					matches++
					cls = p.Class
				}
			}
			if matches != 1 {
				t.Fatalf("sample satisfies %d paths, want exactly 1", matches)
			}
			if got := tree.Predict(x); got != cls {
				t.Fatalf("path class %d != predict %d", cls, got)
			}
		}
	}
}

func TestModelAccuracy(t *testing.T) {
	m, _, test := trainSmall(t, smallVariant())
	acc := m.Accuracy(test)
	if acc < 0.75 {
		t.Fatalf("accuracy %.3f too low for separable synthetic data", acc)
	}
}

func TestEncoderPacking(t *testing.T) {
	enc, err := NewEncoder(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if enc.BitsPerFeature != 1 || enc.FeaturesPerByte != 8 || enc.SymbolsPerSample != 2 {
		t.Fatalf("enc=%+v", enc)
	}
	x := []uint8{1, 0, 1, 0, 0, 0, 0, 1, 1, 1}
	sym := enc.Encode(x)
	if sym[0] != 0b10100001 || sym[1] != 0b11000000 {
		t.Fatalf("packed=%08b %08b", sym[0], sym[1])
	}
	enc4, err := NewEncoder(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if enc4.BitsPerFeature != 2 || enc4.SymbolsPerSample != 1 {
		t.Fatalf("enc4=%+v", enc4)
	}
	sym4 := enc4.Encode([]uint8{3, 1, 2})
	if sym4[0] != 0b11011000 {
		t.Fatalf("packed4=%08b", sym4[0])
	}
}

// symbolClassReference is the brute-force class synthesis symbolClass
// replaced, kept as the oracle: test all 256 byte values against every
// slot's interval.
func symbolClassReference(e Encoder, sym int, lo, hi []uint8) charset.Set {
	var cls charset.Set
	first := sym * e.FeaturesPerByte
	for v := 0; v < 256; v++ {
		ok := true
		for slot := 0; slot < e.FeaturesPerByte; slot++ {
			f := first + slot
			if f >= e.NumFeatures {
				// Unused trailing slots must be zero (the encoder zeroes
				// them), keeping the class tight.
				shift := 8 - e.BitsPerFeature*(slot+1)
				if (v>>shift)&((1<<e.BitsPerFeature)-1) != 0 {
					ok = false
				}
				continue
			}
			shift := 8 - e.BitsPerFeature*(slot+1)
			lvl := uint8(v>>shift) & ((1 << e.BitsPerFeature) - 1)
			if lvl < lo[f] || lvl > hi[f] {
				ok = false
				break
			}
		}
		if ok {
			cls.Add(byte(v))
		}
	}
	return cls
}

func TestSymbolClassMatchesReference(t *testing.T) {
	rng := randx.New(20)
	// Levels 2, 4, 16, 256 fill their 1/2/4/8-bit fields; 3, 9 and 100
	// leave field values no level uses.
	for _, levels := range []int{2, 3, 4, 9, 16, 100, 256} {
		probe, err := NewEncoder(1, levels)
		if err != nil {
			t.Fatal(err)
		}
		// Feature counts that leave every number of unused trailing slots.
		for nf := 1; nf <= 2*probe.FeaturesPerByte+1; nf++ {
			enc, err := NewEncoder(nf, levels)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := make([]uint8, nf), make([]uint8, nf)
			for trial := 0; trial < 60; trial++ {
				for f := range lo {
					switch rng.Intn(6) {
					case 0: // single value
						lo[f] = uint8(rng.Intn(levels))
						hi[f] = lo[f]
					case 1: // empty
						lo[f] = uint8(rng.IntRange(1, levels-1))
						hi[f] = uint8(rng.Intn(int(lo[f])))
					case 2: // arbitrary, possibly empty or above the field
						lo[f], hi[f] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
					default: // full range, as Tree.Paths leaves unsplit features
						lo[f], hi[f] = 0, uint8(levels-1)
					}
				}
				for sym := 0; sym < enc.SymbolsPerSample; sym++ {
					got := enc.symbolClass(sym, lo, hi)
					if want := symbolClassReference(enc, sym, lo, hi); got != want {
						t.Fatalf("levels=%d features=%d sym=%d lo=%v hi=%v:\n got %v\nwant %v",
							levels, nf, sym, lo, hi, got, want)
					}
				}
			}
		}
	}
}

func TestSymbolClassZeroAllocs(t *testing.T) {
	enc, err := NewEncoder(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	lo := make([]uint8, 13)
	hi := []uint8{3, 3, 1, 3, 3, 3, 3, 3, 2, 3, 3, 3, 3}
	var sink charset.Set
	allocs := testing.AllocsPerRun(100, func() {
		for sym := 0; sym < enc.SymbolsPerSample; sym++ {
			sink = sink.Union(enc.symbolClass(sym, lo, hi))
		}
	})
	if allocs != 0 {
		t.Fatalf("symbolClass allocated %.0f objects per run; want 0", allocs)
	}
}

func TestEncoderRejectsHugeLevels(t *testing.T) {
	if _, err := NewEncoder(4, 1000); err == nil {
		t.Fatal("levels > 256 accepted")
	}
}

func TestAutomataMatchesNativeExactly(t *testing.T) {
	m, _, test := trainSmall(t, smallVariant())
	c, err := NewClassifier(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range test.Samples {
		native := m.Predict(s.Pixels)
		auto := c.Classify(s.Pixels)
		if native != auto {
			t.Fatalf("sample %d: native=%d automata=%d", i, native, auto)
		}
	}
}

func TestAutomataMatchesNativeQ4(t *testing.T) {
	v := smallVariant()
	v.Levels = 4
	m, _, test := trainSmall(t, v)
	c, err := NewClassifier(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range test.Samples[:80] {
		if n, a := m.Predict(s.Pixels), c.Classify(s.Pixels); n != a {
			t.Fatalf("Q4 sample %d: native=%d automata=%d", i, n, a)
		}
	}
}

func TestAutomatonShape(t *testing.T) {
	m, _, _ := trainSmall(t, smallVariant())
	a, enc, err := m.BuildAutomaton()
	if err != nil {
		t.Fatal(err)
	}
	wantStates := m.TotalLeaves() * enc.SymbolsPerSample
	if a.NumStates() != wantStates {
		t.Fatalf("states=%d want %d", a.NumStates(), wantStates)
	}
	// edges = states exactly: chain plus wrap (Table I: 1.00 edges/node).
	if a.NumEdges() != wantStates {
		t.Fatalf("edges=%d want %d", a.NumEdges(), wantStates)
	}
	sizes, _ := a.Components()
	if len(sizes) != m.TotalLeaves() {
		t.Fatalf("subgraphs=%d want %d", len(sizes), m.TotalLeaves())
	}
	for _, sz := range sizes {
		if sz != enc.SymbolsPerSample {
			t.Fatalf("chain size %d, want uniform %d (std dev 0)", sz, enc.SymbolsPerSample)
		}
	}
}

func TestOneReportPerTree(t *testing.T) {
	m, _, test := trainSmall(t, smallVariant())
	c, err := NewClassifier(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range test.Samples[:30] {
		c.Classify(s.Pixels)
		total := 0
		for _, v := range c.votes {
			total += v
		}
		if total != len(m.Trees) {
			t.Fatalf("votes=%d want exactly %d (one leaf per tree)", total, len(m.Trees))
		}
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	m, _, test := trainSmall(t, smallVariant())
	batch := m.PredictBatch(test.Samples, 4)
	for i, s := range test.Samples {
		if batch[i] != m.Predict(s.Pixels) {
			t.Fatalf("batch[%d] mismatch", i)
		}
	}
	batch1 := m.PredictBatch(test.Samples, 1)
	for i := range batch {
		if batch[i] != batch1[i] {
			t.Fatal("worker count changed predictions")
		}
	}
}

func TestVariantRelationships(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-variant training")
	}
	ds := GenerateDataset(1200, 77)
	train, _ := ds.Split(0.8)
	a := Variant{Name: "a", Features: 60, MaxLeaves: 40, Trees: 5, Levels: 2}
	c := Variant{Name: "c", Features: 60, MaxLeaves: 80, Trees: 5, Levels: 4}
	ma, err := Train(train, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Train(train, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	aa, _, err := ma.BuildAutomaton()
	if err != nil {
		t.Fatal(err)
	}
	ac, _, err := mc.BuildAutomaton()
	if err != nil {
		t.Fatal(err)
	}
	// More leaves and finer quantization ⇒ more states (Table II's B vs C).
	if ac.NumStates() <= aa.NumStates() {
		t.Fatalf("leaf/level growth should grow states: %d vs %d",
			aa.NumStates(), ac.NumStates())
	}
}

func TestReportCodeRoundTrip(t *testing.T) {
	for tree := 0; tree < 20; tree++ {
		for class := 0; class < NumClasses; class++ {
			tr, cl := DecodeReport(ReportCode(tree, class))
			if tr != tree || cl != class {
				t.Fatalf("code round-trip (%d,%d) -> (%d,%d)", tree, class, tr, cl)
			}
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(Dataset{}, smallVariant(), 1); err == nil {
		t.Error("empty training set accepted")
	}
	bad := smallVariant()
	bad.Trees = 0
	ds := GenerateDataset(50, 1)
	if _, err := Train(ds, bad, 1); err == nil {
		t.Error("zero trees accepted")
	}
}
