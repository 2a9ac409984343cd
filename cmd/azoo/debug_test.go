package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"automatazoo/internal/segment"
	"automatazoo/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDebugServerSurface drives every endpoint of the -debug-addr mux:
// pprof, Prometheus exposition, and the progress JSON.
func TestDebugServerSurface(t *testing.T) {
	s := &obsSession{
		Hooks: segment.Hooks{Registry: telemetry.NewRegistry()},
		prog:  telemetry.NewProgress(),
	}
	s.Registry.Counter("sim.symbols").Add(17)
	s.prog.Tracker("Brill").AddTotal(100)

	addr, err := startDebugServer("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("http://%s", addr)

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, "azoo_sim_symbols_total 17") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if !strings.Contains(body, "# TYPE azoo_sim_symbols_total counter") {
		t.Errorf("/metrics missing TYPE line: %q", body)
	}
	code, body = get(t, base+"/progress")
	if code != 200 || !strings.Contains(body, `"name": "Brill"`) {
		t.Errorf("/progress: %d %q", code, body)
	}
}

// TestDebugServerRegistrationIdempotent: a second server in the same
// process (as when multiple subcommands run under one test binary) must
// register its handlers without panicking and serve the fresh registry.
func TestDebugServerRegistrationIdempotent(t *testing.T) {
	s1 := &obsSession{Hooks: segment.Hooks{Registry: telemetry.NewRegistry()}}
	if _, err := startDebugServer("127.0.0.1:0", s1); err != nil {
		t.Fatal(err)
	}
	s2 := &obsSession{Hooks: segment.Hooks{Registry: telemetry.NewRegistry()}}
	s2.Registry.Counter("sim.symbols").Add(99)
	addr, err := startDebugServer("127.0.0.1:0", s2)
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, fmt.Sprintf("http://%s/metrics", addr))
	if code != 200 || !strings.Contains(body, "azoo_sim_symbols_total 99") {
		t.Errorf("second server /metrics: %d %q", code, body)
	}
	// A session with no registry or progress still serves empty pages.
	s3 := &obsSession{}
	addr, err = startDebugServer("127.0.0.1:0", s3)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, fmt.Sprintf("http://%s/metrics", addr)); code != 200 {
		t.Errorf("bare /metrics: %d", code)
	}
	if code, body := get(t, fmt.Sprintf("http://%s/progress", addr)); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Errorf("bare /progress: %d %q", code, body)
	}
}
