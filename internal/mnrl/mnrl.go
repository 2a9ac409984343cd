// Package mnrl implements serialization of automata in an MNRL-style JSON
// format. MNRL (the MNCaRT Network Representation Language) is the
// interchange format of the paper's open-source toolchain — every
// AutomataZoo benchmark ships as an MNRL file — so the suite needs to be
// able to export its generated benchmarks and re-import them bit-for-bit.
//
// The schema follows MNRL's shape: a network of nodes, each with an id,
// node type ("hState" for homogeneous states, "upCounter" for counter
// elements), enable semantics (onActivateIn / onStartAndActivateIn /
// always), report status and code, a symbol set (for states), counter
// threshold/mode (for counters), and an activateOnMatch connection list.
package mnrl

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"automatazoo/internal/automata"
	"automatazoo/internal/charset"
)

// Network is the top-level MNRL document.
type Network struct {
	ID    string `json:"id"`
	Nodes []Node `json:"nodes"`
}

// Node is one automaton element.
type Node struct {
	ID         string   `json:"id"`
	Type       string   `json:"type"`   // "hState" | "upCounter"
	Enable     string   `json:"enable"` // "onActivateIn" | "onStartAndActivateIn" | "always"
	Report     bool     `json:"report"`
	ReportCode int32    `json:"reportId,omitempty"`
	SymbolSet  string   `json:"symbolSet,omitempty"` // bracket expression
	Threshold  uint32   `json:"threshold,omitempty"`
	Mode       string   `json:"mode,omitempty"` // "rollover" | "latch"
	Activate   []string `json:"activateOnMatch"`
}

const (
	enableActivateIn  = "onActivateIn"
	enableStartOfData = "onStartAndActivateIn"
	enableAlways      = "always"
	typeHState        = "hState"
	typeUpCounter     = "upCounter"
	modeRollover      = "rollover"
	modeLatch         = "latch"
)

// stateNames returns the node ID "_<id>" of each of n states, all cut from
// one string.
func stateNames(n int) []string {
	var buf []byte
	ends := make([]int, n)
	for i := range ends {
		buf = strconv.AppendInt(append(buf, '_'), int64(i), 10)
		ends[i] = len(buf)
	}
	all, start := string(buf), 0
	names := make([]string, n)
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	return names
}

// Export converts an automaton into a Network named id.
func Export(a *automata.Automaton, id string) *Network {
	names := stateNames(a.NumStates())
	off, edges := a.CSR()
	activate := make([]string, len(edges))
	for i, t := range edges {
		activate[i] = names[t]
	}
	symbolSets := make([]string, len(a.Table().Sets())) // by class handle, once each
	var buf []byte
	n := &Network{ID: id, Nodes: make([]Node, 0, a.NumStates())}
	for i := 0; i < a.NumStates(); i++ {
		sid := automata.StateID(i)
		node := Node{
			ID:       names[i],
			Activate: activate[off[i]:off[i+1]:off[i+1]],
		}
		if a.IsReport(sid) {
			node.Report = true
			node.ReportCode = a.ReportCode(sid)
		}
		if a.Kind(sid) == automata.KindCounter {
			cfg, _ := a.CounterConfig(sid)
			node.Type = typeUpCounter
			node.Enable = enableActivateIn
			node.Threshold = cfg.Target
			node.Mode = modeRollover
			if cfg.Mode == automata.CountLatch {
				node.Mode = modeLatch
			}
		} else {
			node.Type = typeHState
			h := a.ClassHandle(sid)
			if symbolSets[h] == "" {
				buf = appendSymbolSet(buf[:0], a.Class(sid))
				symbolSets[h] = string(buf)
			}
			node.SymbolSet = symbolSets[h]
			switch a.Start(sid) {
			case automata.StartAllInput:
				node.Enable = enableAlways
			case automata.StartOfData:
				node.Enable = enableStartOfData
			default:
				node.Enable = enableActivateIn
			}
		}
		n.Nodes = append(n.Nodes, node)
	}
	return n
}

// Import reconstructs an automaton from a Network. Node order in the file
// is not significant; connections may reference nodes defined later.
func Import(n *Network) (*automata.Automaton, error) {
	return ImportTagged(n, nil)
}

// patternPrefix derives a stable pattern name from an MNRL node ID by
// stripping one trailing "<sep><digits>" run (MNRL generators
// conventionally number the states of one pattern that way, e.g.
// "rule_42_7"). IDs without such a suffix name themselves.
func patternPrefix(id string) string {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) || i == 0 {
		return id
	}
	j := i
	for j > 0 && (id[j-1] == '_' || id[j-1] == '.' || id[j-1] == '-') {
		j--
	}
	if j == 0 {
		return id
	}
	return id[:j]
}

// ImportTagged is Import additionally reporting each node's builder state
// range to tag (when non-nil), named by the node's pattern prefix (see
// patternPrefix), so a cost-attribution provenance map (internal/attr)
// can group MNRL states by source pattern. Repeated names accumulate into
// one pattern (attr.Ranges deduplicates by name).
func ImportTagged(n *Network, tag func(name string, lo, hi int)) (*automata.Automaton, error) {
	b := automata.NewBuilder()
	ids := map[string]automata.StateID{}
	// First pass: create states in file order.
	for _, node := range n.Nodes {
		if _, dup := ids[node.ID]; dup {
			return nil, fmt.Errorf("mnrl: duplicate node id %q", node.ID)
		}
		switch node.Type {
		case typeHState:
			cls, err := decodeSymbolSet(node.SymbolSet)
			if err != nil {
				return nil, fmt.Errorf("mnrl: node %s: %w", node.ID, err)
			}
			start := automata.StartNone
			switch node.Enable {
			case enableAlways:
				start = automata.StartAllInput
			case enableStartOfData:
				start = automata.StartOfData
			case enableActivateIn, "":
			default:
				return nil, fmt.Errorf("mnrl: node %s: unknown enable %q", node.ID, node.Enable)
			}
			ids[node.ID] = b.AddSTE(cls, start)
		case typeUpCounter:
			mode := automata.CountRollover
			switch node.Mode {
			case modeLatch:
				mode = automata.CountLatch
			case modeRollover, "":
			default:
				return nil, fmt.Errorf("mnrl: node %s: unknown mode %q", node.ID, node.Mode)
			}
			if node.Threshold == 0 {
				return nil, fmt.Errorf("mnrl: node %s: counter threshold must be positive", node.ID)
			}
			if max := DefaultLimits().MaxCounterTarget; node.Threshold > max {
				return nil, fmt.Errorf("mnrl: node %s: counter threshold %d exceeds %d", node.ID, node.Threshold, max)
			}
			ids[node.ID] = b.AddCounter(node.Threshold, mode)
		default:
			return nil, fmt.Errorf("mnrl: node %s: unknown type %q", node.ID, node.Type)
		}
		if node.Report {
			b.SetReport(ids[node.ID], node.ReportCode)
		}
		if tag != nil {
			s := int(ids[node.ID])
			tag(patternPrefix(node.ID), s, s+1)
		}
	}
	// Second pass: connections.
	for _, node := range n.Nodes {
		from := ids[node.ID]
		for _, to := range node.Activate {
			tid, ok := ids[to]
			if !ok {
				return nil, fmt.Errorf("mnrl: node %s activates unknown node %q", node.ID, to)
			}
			b.AddEdge(from, tid)
		}
	}
	return b.Build()
}

// Write serializes the network as indented JSON.
func (n *Network) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}

// Read parses a network from JSON.
func Read(r io.Reader) (*Network, error) {
	var n Network
	dec := json.NewDecoder(r)
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("mnrl: %w", err)
	}
	return &n, nil
}

// WriteAutomaton is Export followed by Write.
func WriteAutomaton(w io.Writer, a *automata.Automaton, id string) error {
	return Export(a, id).Write(w)
}

// ReadAutomaton is ReadLimited (under DefaultLimits) followed by Import —
// the hardened entry point for loading benchmark files from disk.
func ReadAutomaton(r io.Reader) (*automata.Automaton, error) {
	n, err := ReadLimited(r, Limits{})
	if err != nil {
		return nil, err
	}
	return Import(n)
}

// appendSymbolSet appends s rendered as an exact, machine-reversible
// bracket expression: sorted \xHH atoms and ranges.
func appendSymbolSet(dst []byte, s charset.Set) []byte {
	bs := s.Bytes()
	if len(bs) == 256 {
		return append(dst, '*')
	}
	hex := func(dst []byte, b byte) []byte {
		return append(dst, '\\', 'x', "0123456789abcdef"[b>>4], "0123456789abcdef"[b&15])
	}
	dst = append(dst, '[')
	for i := 0; i < len(bs); {
		j := i
		for j+1 < len(bs) && bs[j+1] == bs[j]+1 {
			j++
		}
		dst = hex(dst, bs[i])
		if j > i {
			dst = hex(append(dst, '-'), bs[j])
		}
		i = j + 1
	}
	return append(dst, ']')
}

// decodeSymbolSet parses the exact format appendSymbolSet produces (plus
// "*" and "[]").
func decodeSymbolSet(s string) (charset.Set, error) {
	var out charset.Set
	if s == "*" {
		return charset.All(), nil
	}
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return out, fmt.Errorf("bad symbol set %q", s)
	}
	body := s[1 : len(s)-1]
	i := 0
	readByte := func() (byte, error) {
		if i+4 > len(body) || body[i] != '\\' || body[i+1] != 'x' {
			return 0, fmt.Errorf("bad symbol atom at %d in %q", i, s)
		}
		var v int
		if _, err := fmt.Sscanf(body[i+2:i+4], "%02x", &v); err != nil {
			return 0, fmt.Errorf("bad hex in %q", s)
		}
		i += 4
		return byte(v), nil
	}
	for i < len(body) {
		lo, err := readByte()
		if err != nil {
			return out, err
		}
		if i < len(body) && body[i] == '-' {
			i++
			hi, err := readByte()
			if err != nil {
				return out, err
			}
			if hi < lo {
				return out, fmt.Errorf("inverted range in %q", s)
			}
			out = out.Union(charset.Range(lo, hi))
			continue
		}
		out.Add(lo)
	}
	return out, nil
}
