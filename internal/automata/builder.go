package automata

import (
	"fmt"
	"maps"
	"slices"

	"automatazoo/internal/charset"
)

// Builder constructs automata incrementally. It is not safe for concurrent
// use. Build freezes the graph into an immutable Automaton; the builder can
// keep being extended afterwards (Build copies).
type Builder struct {
	table   *charset.Table
	css     []charset.Handle
	flags   []uint8
	report  []int32
	succ    [][]StateID
	counter map[StateID]Counter
	edges   int
}

// NewBuilder returns an empty builder with a fresh charset table.
func NewBuilder() *Builder {
	return &Builder{table: charset.NewTable(), counter: map[StateID]Counter{}}
}

// Table exposes the builder's charset table.
func (b *Builder) Table() *charset.Table { return b.table }

// NumStates returns the number of states added so far.
func (b *Builder) NumStates() int { return len(b.css) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return b.edges }

// AddSTE adds a state with the given character class and start type and
// returns its ID.
func (b *Builder) AddSTE(cs charset.Set, start StartType) StateID {
	id := StateID(len(b.css))
	b.css = append(b.css, b.table.Intern(cs))
	b.flags = append(b.flags, uint8(start)<<flagStartShift)
	b.report = append(b.report, 0)
	b.succ = append(b.succ, nil)
	return id
}

// AddCounter adds a counter element with the given target and mode and
// returns its ID. Counters have no character class and no start type.
func (b *Builder) AddCounter(target uint32, mode CounterMode) StateID {
	id := StateID(len(b.css))
	b.css = append(b.css, b.table.Intern(charset.Set{}))
	b.flags = append(b.flags, flagCounter)
	b.report = append(b.report, 0)
	b.succ = append(b.succ, nil)
	b.counter[id] = Counter{Target: target, Mode: mode}
	return id
}

// SetReport marks state id as reporting with the given code.
func (b *Builder) SetReport(id StateID, code int32) {
	b.flags[id] |= flagReport
	b.report[id] = code
}

// SetStart changes the start type of state id.
func (b *Builder) SetStart(id StateID, start StartType) {
	b.flags[id] = b.flags[id]&^flagStartMask | uint8(start)<<flagStartShift
}

// Class returns the current character class of state id.
func (b *Builder) Class(id StateID) charset.Set { return b.table.Set(b.css[id]) }

// Start returns the current start type of state id.
func (b *Builder) Start(id StateID) StartType {
	return StartType((b.flags[id] & flagStartMask) >> flagStartShift)
}

// IsReport reports whether state id currently reports.
func (b *Builder) IsReport(id StateID) bool { return b.flags[id]&flagReport != 0 }

// ReportCode returns the current report code of state id.
func (b *Builder) ReportCode(id StateID) int32 { return b.report[id] }

// AddEdge adds a directed edge from→to. Duplicate edges are coalesced at
// Build time.
func (b *Builder) AddEdge(from, to StateID) {
	b.succ[from] = append(b.succ[from], to)
	b.edges++
}

// Succ returns the current (unfrozen, possibly duplicate-containing)
// successor list of state id.
func (b *Builder) Succ(id StateID) []StateID { return b.succ[id] }

// Merge appends all states of other into b, returning the ID offset that
// was added to every state of other. Report codes are preserved; pass a
// codeShift to relocate them into a caller-managed code space.
func (b *Builder) Merge(other *Automaton, codeShift int32) StateID {
	off := StateID(len(b.css))
	n := other.NumStates()
	for i := 0; i < n; i++ {
		id := StateID(i)
		switch other.Kind(id) {
		case KindCounter:
			cfg, _ := other.CounterConfig(id)
			b.AddCounter(cfg.Target, cfg.Mode)
		default:
			b.AddSTE(other.Class(id), other.Start(id))
		}
		if other.IsReport(id) {
			b.SetReport(off+id, other.ReportCode(id)+codeShift)
		}
	}
	for i := 0; i < n; i++ {
		for _, t := range other.Succ(StateID(i)) {
			b.AddEdge(off+StateID(i), off+t)
		}
	}
	return off
}

// Build validates and freezes the graph. It returns an error if any edge
// endpoint is out of range or a counter has a zero target. States with
// empty character classes are permitted (they simply never match); mesh
// boundary cells and soft-reconfiguration padding rely on this.
func (b *Builder) Build() (*Automaton, error) {
	n := StateID(len(b.css))
	// Freeze edges straight into CSR: append a state's successors, sort
	// that tail and drop duplicates in place — no per-state allocation.
	edgeOff := make([]uint32, n+1)
	flat := make([]StateID, 0, b.edges)
	for from, ss := range b.succ {
		edgeOff[from] = uint32(len(flat))
		for _, to := range ss {
			if to >= n {
				return nil, fmt.Errorf("automata: edge %d->%d out of range (n=%d)", from, to, n)
			}
		}
		tail := append(flat[len(flat):], ss...)
		slices.Sort(tail)
		flat = flat[:len(flat)+len(slices.Compact(tail))]
	}
	edgeOff[n] = uint32(len(flat))
	for id, c := range b.counter {
		if c.Target == 0 {
			return nil, fmt.Errorf("automata: counter %d has zero target", id)
		}
	}
	if len(flat) < cap(flat) {
		// Duplicates were dropped: do not pin the builder-sized array.
		flat = slices.Clone(flat)
	}
	a := &Automaton{
		table:    b.table,
		css:      slices.Clone(b.css),
		flags:    slices.Clone(b.flags),
		report:   slices.Clone(b.report),
		edgeOff:  edgeOff,
		edges:    flat,
		counters: maps.Clone(b.counter),
	}
	for i := StateID(0); i < n; i++ {
		if a.Start(i) != StartNone {
			a.starts = append(a.starts, i)
		}
	}
	return a, nil
}

// MustBuild is Build but panics on error; for use by generators whose input
// is program-constructed and cannot legitimately fail.
func (b *Builder) MustBuild() *Automaton {
	a, err := b.Build()
	if err != nil {
		panic(err)
	}
	return a
}
