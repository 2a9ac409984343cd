package rf

import (
	"fmt"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/sim"
)

// Encoder packs quantized feature vectors into the byte-symbol stream the
// automata consume: each feature takes bitsPerFeature bits (a power of two
// ≤ 8, so fields never straddle byte boundaries), features in fixed order,
// MSB first. One classification = SymbolsPerSample symbols — which is why
// automata runtime is proportional to feature count (Table II's 1.35x).
type Encoder struct {
	NumFeatures      int
	BitsPerFeature   int
	FeaturesPerByte  int
	SymbolsPerSample int
}

// NewEncoder derives the packing for numFeatures features at the given
// quantization level count.
func NewEncoder(numFeatures, levels int) (Encoder, error) {
	bits := 1
	for (1 << bits) < levels {
		bits++
	}
	if bits > 8 {
		return Encoder{}, fmt.Errorf("rf: %d levels exceed one byte", levels)
	}
	// Round to a power of two so fields never straddle bytes.
	for 8%bits != 0 {
		bits++
	}
	fpb := 8 / bits
	return Encoder{
		NumFeatures:      numFeatures,
		BitsPerFeature:   bits,
		FeaturesPerByte:  fpb,
		SymbolsPerSample: (numFeatures + fpb - 1) / fpb,
	}, nil
}

// Encode packs one quantized sample into symbols.
func (e Encoder) Encode(x []uint8) []byte {
	out := make([]byte, e.SymbolsPerSample)
	e.EncodeInto(x, out)
	return out
}

// EncodeInto is Encode without allocation; out must have length
// SymbolsPerSample.
func (e Encoder) EncodeInto(x []uint8, out []byte) {
	for i := range out {
		out[i] = 0
	}
	for f, v := range x {
		sym := f / e.FeaturesPerByte
		slot := f % e.FeaturesPerByte
		shift := 8 - e.BitsPerFeature*(slot+1)
		out[sym] |= byte(v) << shift
	}
}

// symbolClass computes the set of byte values consistent with the interval
// constraints of the features packed into symbol sym. It enumerates the
// satisfying values slot by slot (partial values × the slot's interval), so
// it costs the size of the class, or O(slots) for the two common extremes:
// the empty class and the fully unconstrained one.
func (e Encoder) symbolClass(sym int, lo, hi []uint8) charset.Set {
	first := sym * e.FeaturesPerByte
	top := uint8(1)<<e.BitsPerFeature - 1 // highest value a field holds
	var slotLo, slotHi [8]uint8
	all := true
	for slot := 0; slot < e.FeaturesPerByte; slot++ {
		// Unused trailing slots must be zero (the encoder zeroes them),
		// keeping the class tight.
		var l, h uint8
		if f := first + slot; f < e.NumFeatures {
			l, h = lo[f], min(hi[f], top)
		}
		if l > h {
			return charset.Set{}
		}
		if l != 0 || h != top {
			all = false
		}
		slotLo[slot], slotHi[slot] = l, h
	}
	if all {
		return charset.All()
	}
	// vals[:n] holds every satisfying value of the slots seen so far;
	// each slot multiplies it by its interval width, expanding back to
	// front so the expansion is in place.
	var vals [256]uint8
	n := 1
	for slot := 0; slot < e.FeaturesPerByte; slot++ {
		shift := 8 - e.BitsPerFeature*(slot+1)
		l, w := slotLo[slot], int(slotHi[slot]-slotLo[slot])+1
		for i := n - 1; i >= 0; i-- {
			p := vals[i]
			for k := w - 1; k >= 0; k-- {
				vals[i*w+k] = p | (l+uint8(k))<<shift
			}
		}
		n *= w
	}
	var cls charset.Set
	for _, v := range vals[:n] {
		cls.Add(v)
	}
	return cls
}

// ReportCode encodes (tree, class) into a report code.
func ReportCode(tree, class int) int32 { return int32(tree*NumClasses + class) }

// DecodeReport splits a report code back into (tree, class).
func DecodeReport(code int32) (tree, class int) {
	return int(code) / NumClasses, int(code) % NumClasses
}

// BuildAutomaton converts the trained model into its chain-per-leaf
// automaton: every root-to-leaf path of every tree becomes one fixed-length
// chain (SymbolsPerSample states) whose per-state classes encode the path's
// interval constraints; the tail reports (tree, class) and wraps to the
// head so the structure can stream back-to-back classifications. All
// chains are the same length (Table I: std-dev 0) and edges = states
// (1.00 edges/node).
func (m *Model) BuildAutomaton() (*automata.Automaton, Encoder, error) {
	enc, err := NewEncoder(m.FM.NumSelected(), m.FM.Levels)
	if err != nil {
		return nil, Encoder{}, err
	}
	b := automata.NewBuilder()
	for ti, t := range m.Trees {
		for _, path := range t.Paths(m.FM.NumSelected(), m.FM.Levels) {
			var head, prev automata.StateID
			for s := 0; s < enc.SymbolsPerSample; s++ {
				cls := enc.symbolClass(s, path.Lo, path.Hi)
				st := automata.StartNone
				if s == 0 {
					st = automata.StartOfData
				}
				id := b.AddSTE(cls, st)
				if s == 0 {
					head = id
				} else {
					b.AddEdge(prev, id)
				}
				prev = id
			}
			b.SetReport(prev, ReportCode(ti, path.Class))
			b.AddEdge(prev, head) // wrap for streaming classification
		}
	}
	a, err := b.Build()
	return a, enc, err
}

// Classifier runs automata-based inference with a reusable engine.
type Classifier struct {
	m      *Model
	enc    Encoder
	engine *sim.Engine
	votes  [NumClasses]int
	qbuf   []uint8
	sbuf   []byte
}

// NewClassifier builds the model's automaton and wraps it for per-sample
// classification.
func NewClassifier(m *Model) (*Classifier, error) {
	a, enc, err := m.BuildAutomaton()
	if err != nil {
		return nil, err
	}
	c := &Classifier{
		m:      m,
		enc:    enc,
		engine: sim.New(a),
		qbuf:   make([]uint8, m.FM.NumSelected()),
		sbuf:   make([]byte, enc.SymbolsPerSample),
	}
	c.engine.OnReport = func(r sim.Report) {
		_, class := DecodeReport(r.Code)
		c.votes[class]++
	}
	return c, nil
}

// Automaton exposes the underlying automaton (for stats and benches).
func (c *Classifier) Automaton() *automata.Automaton { return c.engine.Automaton() }

// Encoder exposes the symbol packing.
func (c *Classifier) Encoder() Encoder { return c.enc }

// Classify runs one sample through the automaton and majority-votes the
// tree reports.
func (c *Classifier) Classify(pixels []byte) int {
	c.m.FM.QuantizeInto(pixels, c.qbuf)
	return c.ClassifyQuantized(c.qbuf)
}

// ClassifyQuantized classifies an already-quantized sample.
func (c *Classifier) ClassifyQuantized(x []uint8) int {
	c.enc.EncodeInto(x, c.sbuf)
	c.votes = [NumClasses]int{}
	c.engine.Reset()
	c.engine.Run(c.sbuf)
	best, bestV := 0, -1
	for cl, v := range c.votes {
		if v > bestV {
			best, bestV = cl, v
		}
	}
	return best
}
