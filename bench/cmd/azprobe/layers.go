package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"automatazoo/bench/catalog"
	"automatazoo/internal/acmatch"
	"automatazoo/internal/attr"
	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
	"automatazoo/internal/ckpt"
	"automatazoo/internal/clamav"
	"automatazoo/internal/core"
	"automatazoo/internal/dfa"
	"automatazoo/internal/guard"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/report"
	"automatazoo/internal/segment"
	"automatazoo/internal/sim"
	"automatazoo/internal/stats"
	"automatazoo/internal/telemetry"
	"automatazoo/internal/transform"
)

// datasets holds the kernels the layer probes share, built once per process
// on first use and keyed by name, scale and stream size.
type datasets map[string]built

// kernel returns a suite kernel built through internal/core, cached.
func (p *probe) kernel(name string, scale float64, input int) (built, error) {
	key := fmt.Sprintf("%s@%g@%d", name, scale, input)
	if k, ok := p.data[key]; ok {
		return k, nil
	}
	b, err := core.ByName(name)
	if err != nil {
		return built{}, err
	}
	a, streams, err := b.Build(core.Config{Scale: scale, InputBytes: input, Seed: p.seed})
	if err != nil {
		return built{}, fmt.Errorf("build %s: %w", name, err)
	}
	if p.data == nil {
		p.data = datasets{}
	}
	k := built{a: a, streams: streams}
	p.data[key] = k
	return k, nil
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

// compileLayer times the five rule loaders (generator output to frozen
// automaton: loader, regex parse and compile, Builder.Build).
func (p *probe) compileLayer() error {
	cfg := core.Config{Scale: p.scaleOf(0.05), InputBytes: 256, Seed: p.seed}
	for _, name := range []string{"Snort", "ClamAV", "YARA", "Protomata", "Brill"} {
		l := loaders[name]
		rules, n := l.generate(cfg)
		var err error
		s, reps := p.timeMedian(3, func() { sink, err = l.compile(rules) })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p.emit("compile."+catalog.Slug(name)+".us_per_pattern", s*1e6/float64(n), reps)
	}
	return nil
}

// scaleOf shrinks a scale under -smoke.
func (p *probe) scaleOf(full float64) float64 {
	if p.smoke {
		return 0.004
	}
	return full
}

// ring builds the synthetic automaton of the sim.step probes: n states in
// one cycle, every class matching every input byte used, so a frontier
// seeded with k states stays at exactly k states forever. Density is then
// a parameter, not an accident of the input.
func ring(n int) (*automata.Automaton, error) {
	b := automata.NewBuilder()
	class := charset.Range('a', 'z')
	for i := 0; i < n; i++ {
		b.AddSTE(class, automata.StartNone)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(automata.StateID(i), automata.StateID((i+1)%n))
	}
	return b.Build()
}

// fan builds n independent all-input states matching every byte, each
// followed by what mk adds (a counter, or nothing when the state itself
// reports): n pulses or n reports per input symbol.
func fan(n int, counter bool) (*automata.Automaton, error) {
	b := automata.NewBuilder()
	for i := 0; i < n; i++ {
		s := b.AddSTE(charset.All(), automata.StartAllInput)
		if counter {
			c := b.AddCounter(1<<30, automata.CountRollover)
			b.AddEdge(s, c)
			b.SetReport(c, int32(i))
		} else {
			b.SetReport(s, int32(i))
		}
	}
	return b.Build()
}

// chains builds n literal chains of the given length whose all-input heads
// match one byte of 'b'..'y' each: a signature set that the byte 'a' never
// enters.
func chains(n, length int) (*automata.Automaton, error) {
	b := automata.NewBuilder()
	for i := 0; i < n; i++ {
		prev := b.AddSTE(charset.Single('b'+byte(i%24)), automata.StartAllInput)
		for j := 1; j < length; j++ {
			id := b.AddSTE(charset.Single('b'+byte((i+j)%24)), automata.StartNone)
			b.AddEdge(prev, id)
			prev = id
		}
		b.SetReport(prev, int32(i))
	}
	return b.Build()
}

func letters(n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = 'a' + byte(i%26)
	}
	return in
}

func (p *probe) automataLayer() error {
	// Builder.Build on a chain-heavy automaton shaped like a signature set:
	// 64-state literal chains, every 8th class a range.
	n := p.n(200_000, 2_000)
	var a *automata.Automaton
	var err error
	s, reps := p.timeMedian(5, func() {
		b := automata.NewBuilder()
		for i := 0; i < n; i++ {
			cs := charset.Single(byte(i * 7))
			if i%8 == 0 {
				cs = charset.Range(byte(i), byte(i)|0x0f)
			}
			start := automata.StartNone
			if i%64 == 0 {
				start = automata.StartAllInput
			}
			id := b.AddSTE(cs, start)
			if i%64 != 0 {
				b.AddEdge(id-1, id)
			}
			if i%64 == 63 {
				b.SetReport(id, int32(i/64))
			}
		}
		a, err = b.Build()
	})
	if err != nil {
		return err
	}
	p.emit("automata.build_ns_per_state", s*1e9/float64(n), reps)
	p.emit("automata.bytes_per_state", float64(a.MemoryFootprint())/float64(a.NumStates()), 0)

	// charset: membership test on the hot path, interning at build time.
	sets := []charset.Set{charset.Word(), charset.Digits(), charset.Single('x'), charset.NotNewline(), charset.Range(0x80, 0xff)}
	loops := p.n(2_000_000, 10_000)
	hits := 0
	s, reps = p.timeMedian(5, func() {
		for i := 0; i < loops; i++ {
			if sets[i%len(sets)].Contains(byte(i)) {
				hits++
			}
		}
	})
	sink = hits
	p.emit("charset.contains_ns", s*1e9/float64(loops), reps)
	interns := p.n(200_000, 2_000)
	s, reps = p.timeMedian(5, func() {
		t := charset.NewTable()
		for i := 0; i < interns; i++ {
			t.Intern(charset.Range(byte(i%97), byte(i%97)+byte(i%13)))
		}
		sink = t
	})
	p.emit("charset.intern_ns", s*1e9/float64(interns), reps)
	return nil
}

func (p *probe) transformLayer() error {
	k, err := p.kernel("Snort", p.scaleOf(0.05), 256)
	if err != nil {
		return err
	}
	states := float64(k.a.NumStates())
	removed := 0
	s, reps := p.timeMedian(3, func() { sink, removed = transform.PrefixMerge(k.a) })
	p.emit("transform.prefixmerge_ns_per_state", s*1e9/states, reps)
	p.emit("transform.prefixmerge_ratio", float64(removed)/states, 0)
	s, reps = p.timeMedian(5, func() { sink, _ = transform.Trim(k.a) })
	p.emit("transform.trim_ns_per_state", s*1e9/states, reps)
	s, reps = p.timeMedian(5, func() { sink, err = transform.Widen(k.a) })
	if err != nil {
		return fmt.Errorf("widen: %w", err)
	}
	p.emit("transform.widen_ns_per_state", s*1e9/states, reps)
	s, reps = p.timeMedian(3, func() { sink, err = transform.LimitFanOut(k.a, 4) })
	if err != nil {
		return fmt.Errorf("limit fan-out: %w", err)
	}
	p.emit("transform.fanlimit_ns_per_state", s*1e9/states, reps)
	s, reps = p.timeMedian(5, func() { sink = stats.Compute(k.a) })
	p.emit("stats.compute_ns_per_state", s*1e9/states, reps)
	return nil
}

func (p *probe) simLayer() error {
	k, err := p.kernel("Snort", p.scaleOf(0.05), 256)
	if err != nil {
		return err
	}
	s, reps := p.timeMedian(5, func() { sink = sim.New(k.a) })
	p.emit("sim.new_ns_per_state", s*1e9/float64(k.a.NumStates()), reps)

	// Step at a fixed frontier density.
	const ringStates = 4096
	r, err := ring(ringStates)
	if err != nil {
		return err
	}
	for _, d := range []struct {
		name    string
		enabled int
		symbols int
	}{
		{"d0p1", ringStates / 1000, 200_000},
		{"d1", ringStates / 100, 50_000},
		{"d10", ringStates / 10, 5_000},
		{"d50", ringStates / 2, 1_000},
	} {
		in := letters(p.n(d.symbols, 500))
		e := sim.New(r)
		var st sim.Stats
		s, reps := p.timeMedian(5, func() {
			e.Reset()
			for i := 0; i < d.enabled; i++ {
				e.EnableState(automata.StateID(i * (ringStates / d.enabled)))
			}
			st = e.Run(in)
		})
		if want := int64(d.enabled) * int64(len(in)); st.Enabled != want {
			return fmt.Errorf("ring at %s: %d enabled over %d symbols, want %d", d.name, st.Enabled, len(in), want)
		}
		p.emit("sim.step_ns."+d.name, s*1e9/float64(len(in)), reps)
	}

	// Idle: 2000 always-on literal chains, input that matches none of their
	// heads, so the start index finds nothing and the frontier stays empty.
	idle, err := chains(2000, 8)
	if err != nil {
		return err
	}
	quiet := make([]byte, p.n(1<<20, 4096))
	for i := range quiet {
		quiet[i] = 'a'
	}
	e := sim.New(idle)
	var st sim.Stats
	s, reps = p.timeMedian(5, func() { e.Reset(); st = e.Run(quiet) })
	if st.Active != 0 {
		return fmt.Errorf("idle input activated %d states", st.Active)
	}
	p.emit("sim.idle_ns_per_symbol", s*1e9/float64(st.Symbols), reps)

	// Counter pulses and report emission, 64 per symbol.
	for _, f := range []struct {
		name    string
		counter bool
		per     func(sim.Stats) int64
	}{
		{"sim.counter_ns_per_pulse", true, func(s sim.Stats) int64 { return s.CounterPulses }},
		{"sim.report_ns_per_report", false, func(s sim.Stats) int64 { return s.Reports }},
	} {
		a, err := fan(64, f.counter)
		if err != nil {
			return err
		}
		in := letters(p.n(10_000, 500))
		e := sim.New(a)
		s, reps := p.timeMedian(5, func() { e.Reset(); st = e.Run(in) })
		if f.per(st) != 64*int64(len(in)) {
			return fmt.Errorf("%s: %d events over %d symbols, want 64 per symbol", f.name, f.per(st), len(in))
		}
		p.emit(f.name, s*1e9/float64(f.per(st)), reps)
	}
	return nil
}

func (p *probe) dfaLayer() error {
	// Hit regime: Snort, warm second pass.
	k, err := p.kernel("Snort", p.scaleOf(0.05), p.n(32<<10, 2048))
	if err != nil {
		return err
	}
	var e *dfa.Engine
	s, reps := p.timeMedian(3, func() { e, err = dfa.New(k.a) })
	if err != nil {
		return err
	}
	p.emit("dfa.new_ns_per_state", s*1e9/float64(k.a.NumStates()), reps)
	cold := e.Run(k.streams[0])
	if cold.DFAStates == 0 {
		return fmt.Errorf("cold pass interned no DFA state")
	}
	p.emit("dfa.construct_us_per_dstate", float64(cold.ConstructNanos)/1e3/float64(cold.DFAStates), 1)
	p.emit("dfa.cache_bytes_per_dstate", float64(cold.CacheBytes)/float64(cold.DFAStates), 0)
	s, reps = p.timeMedian(5, func() { e.Reset(); sink = e.Run(k.streams[0]) })
	p.emit("dfa.hit_ns_per_symbol", s*1e9/float64(len(k.streams[0])), reps)

	// Many components: ClamAV steps every component on every byte.
	c, err := p.kernel("ClamAV", p.scaleOf(0.03), p.n(1024, 512))
	if err != nil {
		return err
	}
	sizes, _ := c.a.Components()
	ce, err := dfa.New(c.a)
	if err != nil {
		return err
	}
	ce.Run(c.streams[0]) // warm
	s, reps = p.timeMedian(3, func() { ce.Reset(); sink = ce.Run(c.streams[0]) })
	p.emit("dfa.ns_per_symbol_per_component", s*1e9/float64(len(c.streams[0]))/float64(len(sizes)), reps)

	// Thrash regime: Hamming 22x5 overflows its per-component state budget.
	h, err := p.kernel("Hamming 22x5", p.scaleOf(0.05), p.n(3<<10, 1024))
	if err != nil {
		return err
	}
	he, err := dfa.New(h.a)
	if err != nil {
		return err
	}
	st := he.Run(h.streams[0])
	p.emit("dfa.hit_ratio.thrash", st.HitRate(), 0)
	p.emit("dfa.evictions_per_lookup.thrash", st.EvictionRate(), 0)
	p.emit("dfa.fallbacks.thrash", float64(st.Fallbacks), 0)
	return nil
}

func (p *probe) prefilterLayer() error {
	// acmatch on the literal bodies of a ClamAV signature set.
	sigs := clamav.Generate(p.n(1000, 60), p.seed)
	var lits [][]byte
	for _, sg := range sigs {
		body, err := clamav.VirusBody(sg)
		if err != nil {
			return err
		}
		if len(body) > 0 {
			lits = append(lits, body)
		}
	}
	var m *acmatch.Matcher
	var err error
	s, reps := p.timeMedian(3, func() { m, err = acmatch.Compile(lits) })
	if err != nil {
		return err
	}
	p.emit("acmatch.compile_us_per_pattern", s*1e6/float64(len(lits)), reps)
	img, err := clamav.DiskImage(p.n(2<<20, 8192), []clamav.Signature{sigs[0], sigs[len(sigs)/2]}, p.seed)
	if err != nil {
		return err
	}
	matches := 0
	s, reps = p.timeMedian(5, func() { matches = 0; m.ScanFunc(img, func(acmatch.Match) { matches++ }) })
	sink = matches
	p.emit("acmatch.scan_mbps", float64(len(img))/s/1e6, reps)

	// The two-stage engine against the plain interpreter, same ClamAV kernel.
	k, err := p.kernel("ClamAV", p.scaleOf(0.03), p.n(1<<20, 8192))
	if err != nil {
		return err
	}
	var pf *prefilter.Engine
	s, reps = p.timeMedian(3, func() { pf, err = prefilter.New(k.a) })
	if err != nil {
		return err
	}
	p.emit("prefilter.new_ms", s*1e3, reps)
	p.emit("prefilter.anchored_ratio", float64(pf.Anchored())/float64(pf.Anchored()+pf.Unanchored()), 0)
	in := k.streams[0]
	var pst, sst sim.Stats
	pfS, reps := p.timeMedian(5, func() { pf.Reset(); pst = pf.Run(in) })
	p.emit("prefilter.anchor_hits_per_kib", float64(pf.AnchorHits())/(float64(len(in))/1024), 0)
	se := sim.New(k.a)
	simS, _ := p.timeMedian(5, func() { se.Reset(); sst = se.Run(in) })
	if pst != sst {
		return fmt.Errorf("prefilter stats %+v differ from sim stats %+v", pst, sst)
	}
	p.emit("prefilter.speedup_vs_sim", simS/pfS, reps)

	// Residual path only: File Carving has no usable anchor.
	fc, err := p.kernel("File Carving", 0.05, p.n(1<<20, 8192))
	if err != nil {
		return err
	}
	rf, err := prefilter.New(fc.a)
	if err != nil {
		return err
	}
	s, reps = p.timeMedian(5, func() { rf.Reset(); sink = rf.Run(fc.streams[0]) })
	p.emit("prefilter.residual_ns_per_symbol", s*1e9/float64(len(fc.streams[0])), reps)
	return nil
}

func (p *probe) segmentLayer() error {
	k, err := p.kernel("Snort", 0.05, p.n(2<<20, 64<<10))
	if err != nil {
		return err
	}
	in := k.streams[0]
	ctx := context.Background()
	e := sim.New(k.a)
	var seq sim.Stats
	seqS, reps := p.timeMedian(3, func() { e.Reset(); seq = e.Run(in) })

	segs := max(p.w, 2)
	var res segment.Result
	run := func(o segment.Options) (float64, error) {
		var rerr error
		s, _ := p.timeMedian(3, func() { res, rerr = segment.Run(ctx, k.a, in, o) })
		if rerr == nil && res.Stats != seq {
			rerr = fmt.Errorf("segmented stats %+v differ from sequential %+v", res.Stats, seq)
		}
		return s, rerr
	}
	parS, err := run(segment.Options{Segments: segs, Workers: p.w})
	if err != nil {
		return err
	}
	st := res.Stitch
	if st.Speculated == 0 {
		return fmt.Errorf("no segment speculated at %d segments", segs)
	}
	p.emit("segment.commit_ratio", float64(st.Committed)/float64(st.Speculated), 0)
	p.emit("segment.replay_bytes_ratio", float64(st.ReplayBytes)/float64(len(in)), 0)
	p.emit("segment.warmup_bytes_ratio", float64(st.WarmupBytes)/float64(len(in)), 0)
	p.emit("segment.speedup", seqS/parS, reps)
	w1S, err := run(segment.Options{Segments: 4, Workers: 1})
	if err != nil {
		return err
	}
	p.emit("segment.overhead_w1", w1S/seqS, reps)
	return nil
}

func (p *probe) partitionLayer() error {
	ctx := context.Background()
	k, err := p.kernel("ClamAV", p.scaleOf(0.03), p.n(1<<20, 8192))
	if err != nil {
		return err
	}
	var plan *partition.Plan
	s, reps := p.timeMedian(5, func() { plan = partition.ForWorkers(k.a, p.w) })
	p.emit("partition.forworkers_ms", s*1e3, reps)
	var rerr error
	one, reps := p.timeMedian(3, func() { _, rerr = plan.RunParallel(ctx, 1, k.streams[0], nil) })
	if rerr != nil {
		return rerr
	}
	many, _ := p.timeMedian(3, func() { _, rerr = plan.RunParallel(ctx, p.w, k.streams[0], nil) })
	if rerr != nil {
		return rerr
	}
	p.emit("partition.speedup", one/many, reps)

	// Short streams: the "azoo run" path for Random Forest B at -j 1 and at
	// -j W, on the first streams of its test set.
	rf, err := p.kernel("Random Forest B", 0.05, 256)
	if err != nil {
		return err
	}
	short := rf.streams[:min(len(rf.streams), p.n(12, 2))]
	var d1, dw stats.Dynamic
	seq, reps := p.timeMedian(3, func() {
		d1, _, rerr = stats.ObserveStreams(ctx, rf.a, short, stats.StreamOptions{Workers: 1})
	})
	if rerr != nil {
		return rerr
	}
	par, _ := p.timeMedian(1, func() {
		dw, rerr = stats.ObserveSegmentsParallelHooked(ctx, rf.a, short, p.w, stats.Hooks{})
	})
	if rerr != nil {
		return rerr
	}
	if d1 != dw {
		return fmt.Errorf("short streams: -j 1 %+v differs from -j %d %+v", d1, p.w, dw)
	}
	p.emit("partition.short_stream_slowdown", par/seq, reps)

	// Report merge: a report-dense kernel with and without a consumer. With
	// none the slices run callback-free; with one, reports are buffered per
	// slice, merged into canonical order and delivered.
	pr, err := p.kernel("AP PRNG 8-sided", p.scaleOf(0.05), p.n(16<<10, 1024))
	if err != nil {
		return err
	}
	mp := partition.ForWorkers(pr.a, max(p.w, 2))
	bare, reps := p.timeMedian(5, func() { _, rerr = mp.RunParallel(ctx, p.w, pr.streams[0], nil) })
	if rerr != nil {
		return rerr
	}
	var delivered int64
	merged, _ := p.timeMedian(5, func() {
		delivered = 0
		_, rerr = mp.RunParallel(ctx, p.w, pr.streams[0], func(sim.Report) { delivered++ })
	})
	if rerr != nil {
		return rerr
	}
	if delivered == 0 {
		return fmt.Errorf("report-dense kernel delivered no report")
	}
	// Floor at zero: on a noisy machine the two medians can cross.
	p.emit("partition.merge_ns_per_report", max(merged-bare, 0)*1e9/float64(delivered), reps)
	return nil
}

func (p *probe) ckptLayer() error {
	k, err := p.kernel("Levenshtein 24x5", p.scaleOf(0.05), p.n(2048, 512))
	if err != nil {
		return err
	}
	e := sim.New(k.a)
	st := e.Run(k.streams[0])
	cp := &ckpt.Checkpoint{
		Meta: ckpt.Meta{
			Command: "run", Label: "Levenshtein 24x5", Engine: "nfa",
			Flags:    map[string]string{"bench": "Levenshtein 24x5", "scale": "0.05", "input": "2048", "seed": fmt.Sprint(p.seed)},
			Interval: ckpt.DefaultInterval, Workers: 1, Segments: 1,
		},
		Sim:    e.CaptureState(),
		Cursor: ckpt.Cursor{Offset: st.Symbols, Reports: st.Reports, Sim: &st},
	}
	var img []byte
	s, reps := p.timeMedian(15, func() { img, err = cp.EncodeBytes() })
	if err != nil {
		return err
	}
	p.emit("ckpt.encode_us", s*1e6, reps)
	p.emit("ckpt.bytes", float64(len(img)), 0)
	s, reps = p.timeMedian(15, func() { sink, err = ckpt.Decode(img) })
	if err != nil {
		return err
	}
	p.emit("ckpt.decode_us", s*1e6, reps)

	// Durable save: write-temp, fsync, rename, previous generation rotated.
	sv := &ckpt.Saver{
		Path: filepath.Join(p.tmp, "probe.ckpt"), Interval: ckpt.DefaultInterval,
		Capture: func() (*ckpt.Checkpoint, error) { return cp, nil },
		Warn:    func(msg string) { p.fail("ckpt saver: %s", msg) },
	}
	if err := sv.Save("prime"); err != nil { // first save has no generation to rotate
		return err
	}
	s, reps = p.timeMedian(7, func() { err = sv.Save("probe") })
	if err != nil {
		return err
	}
	if sv.Disabled() {
		return fmt.Errorf("saver degraded to disabled")
	}
	p.emit("ckpt.save_ms", s*1e3, reps)
	return nil
}

func (p *probe) hooksLayer() error {
	reg := telemetry.NewRegistry()
	c := reg.Counter("probe.adds")
	loops := p.n(2_000_000, 10_000)
	s, reps := p.timeMedian(5, func() {
		for i := 0; i < loops; i++ {
			c.Add(1)
		}
	})
	p.emit("telemetry.counter_add_ns", s*1e9/float64(loops), reps)

	// A registry as a hooked Snort run leaves it, rendered for /metrics.
	k, err := p.kernel("Snort", 0.05, p.n(64<<10, 2048))
	if err != nil {
		return err
	}
	col := attr.NewCollector(k.a, attr.FromComponents(k.a, "c"))
	if _, err := stats.ObserveSegmentsHooked(k.a, k.streams, stats.Hooks{Registry: reg, Attribution: col}); err != nil {
		return err
	}
	col.Publish(reg, 10)
	s, reps = p.timeMedian(15, func() { err = reg.WritePrometheus(io.Discard) })
	if err != nil {
		return err
	}
	p.emit("telemetry.prometheus_render_us", s*1e6, reps)

	led := col.Ledger(col.GlobalCompOf())
	states := k.a.NumStates()
	s, reps = p.timeMedian(5, func() {
		for i := 0; i < loops; i++ {
			led.Activate(automata.StateID(i % states))
		}
	})
	led.Discard()
	p.emit("attr.ledger_activate_ns", s*1e9/float64(loops), reps)
	s, reps = p.timeMedian(15, func() { sink = col.Fold() })
	p.emit("attr.fold_us", s*1e6, reps)

	g := guard.New(context.Background(), guard.Budget{Timeout: time.Hour})
	checks := p.n(500_000, 5_000)
	s, reps = p.timeMedian(5, func() {
		for i := 0; i < checks; i++ {
			if err = g.Boundary(guard.SiteSimChunk, 4096); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	p.emit("guard.boundary_ns", s*1e9/float64(checks), reps)

	snap := reg.Snapshot()
	m := report.Manifest{
		SchemaVersion: report.SchemaVersion, Label: "probe", Command: "run",
		Timestamp: "2026-01-01T00:00:00Z", Env: report.CaptureEnv(1),
		Kernels: []report.KernelRow{{Name: "Snort", States: states}},
		Metrics: &snap, Attribution: attr.Top(col.Fold(), 10),
	}
	path := filepath.Join(p.tmp, "probe.report.json")
	s, reps = p.timeMedian(7, func() { err = m.WriteFile(path) })
	if err != nil {
		return err
	}
	p.emit("report.manifest_write_ms", s*1e3, reps)
	return nil
}
