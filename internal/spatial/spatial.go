// Package spatial models spatial automata-processing architectures (FPGA
// overlays like REAPR, or the Micron AP) analytically, the way the paper
// itself derives its FPGA numbers: "multiplying the resulting maximum
// virtual clock frequency by the number of input symbols required to drive
// the automaton". A spatial fabric consumes one symbol per clock regardless
// of active set, but is capacity- and routing-constrained.
package spatial

import "fmt"

// Model is an analytical spatial architecture.
type Model struct {
	Name string
	// ClockHz is the (virtual) clock frequency: one input symbol per cycle.
	ClockHz float64
	// StateCapacity is how many automaton states fit on one device.
	StateCapacity int
	// ReportDrainCycles models the output-reporting bottleneck: extra
	// cycles charged per report event (0 for report-light designs).
	ReportDrainCycles float64
}

// REAPR approximates the paper's placed-and-routed Kintex Ultrascale
// XCKU060 REAPR overlay.
func REAPR() Model {
	return Model{Name: "REAPR (XCKU060)", ClockHz: 250e6, StateCapacity: 663_360}
}

// MicronD480 approximates one AP chip: 49,152 STEs per D480.
func MicronD480() Model {
	return Model{Name: "Micron D480", ClockHz: 133e6, StateCapacity: 49_152}
}

// SymbolsPerSec returns the streaming symbol throughput given a report
// rate (reports per symbol).
func (m Model) SymbolsPerSec(reportRate float64) float64 {
	return m.ClockHz / (1 + reportRate*m.ReportDrainCycles)
}

// ClassificationsPerSec returns item-classification throughput when each
// item needs symbolsPerItem input symbols (the Table IV REAPR model).
func (m Model) ClassificationsPerSec(symbolsPerItem int) float64 {
	if symbolsPerItem <= 0 {
		return 0
	}
	return m.ClockHz / float64(symbolsPerItem)
}

// Utilization returns the fraction of one device's state capacity a
// benchmark uses (>1 means it does not fit).
func (m Model) Utilization(states int) float64 {
	return float64(states) / float64(m.StateCapacity)
}

func (m Model) String() string {
	return fmt.Sprintf("%s @ %.0f MHz, %d states", m.Name, m.ClockHz/1e6, m.StateCapacity)
}
