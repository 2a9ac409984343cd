package spatial

import (
	"strings"
	"testing"
)

func TestClassificationsPerSec(t *testing.T) {
	m := REAPR()
	if got := m.ClassificationsPerSec(25); got != 250e6/25 {
		t.Fatalf("cps=%v", got)
	}
	if m.ClassificationsPerSec(0) != 0 {
		t.Fatal("zero symbols should yield zero")
	}
	// More symbols per item ⇒ lower throughput (Table II's runtime trend).
	if m.ClassificationsPerSec(34) >= m.ClassificationsPerSec(25) {
		t.Fatal("throughput must fall with symbol count")
	}
}

func TestSymbolsPerSecWithReportDrain(t *testing.T) {
	m := Model{ClockHz: 100e6, ReportDrainCycles: 10}
	full := m.SymbolsPerSec(0)
	loaded := m.SymbolsPerSec(0.5)
	if full != 100e6 {
		t.Fatalf("full=%v", full)
	}
	if loaded >= full {
		t.Fatal("report drain should cost throughput")
	}
}

func TestUtilization(t *testing.T) {
	m := MicronD480()
	if u := m.Utilization(49_152 / 2); u != 0.5 {
		t.Fatalf("util=%v", u)
	}
}

func TestString(t *testing.T) {
	if s := REAPR().String(); !strings.Contains(s, "REAPR") || !strings.Contains(s, "MHz") {
		t.Fatalf("string: %s", s)
	}
}
