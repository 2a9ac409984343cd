package charset

// Handle identifies an interned Set inside a Table. Handles are dense small
// integers, so automata states can carry a 4-byte handle instead of a 32-byte
// Set; literal-heavy benchmarks (ClamAV, YARA) reuse a few hundred distinct
// sets across millions of states.
type Handle uint32

// Table deduplicates Sets and hands out dense Handles. The zero value is
// ready to use.
type Table struct {
	sets  []Set
	index map[Set]Handle
}

// NewTable returns an empty interning table.
func NewTable() *Table {
	return &Table{index: make(map[Set]Handle)}
}

// Intern returns the canonical handle for s, adding it if unseen.
func (t *Table) Intern(s Set) Handle {
	if t.index == nil {
		t.index = make(map[Set]Handle)
	}
	if h, ok := t.index[s]; ok {
		return h
	}
	h := Handle(len(t.sets))
	t.sets = append(t.sets, s)
	t.index[s] = h
	return h
}

// Set returns the Set for handle h.
func (t *Table) Set(h Handle) Set { return t.sets[h] }

// Len returns the number of distinct interned sets.
func (t *Table) Len() int { return len(t.sets) }

// Sets returns the backing slice of interned sets, indexed by Handle. The
// caller must not modify it.
func (t *Table) Sets() []Set { return t.sets }
