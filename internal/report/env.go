// Package report is the run-report format behind the `-report` flag: a
// Manifest captures environment provenance, suite configuration,
// per-kernel rows, phase-span breakdowns, and a telemetry snapshot as
// deterministic JSON. It measures nothing itself — the commands fill it
// in, and speed is measured by the repository benchmark under bench/.
package report

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Environment is the provenance block of a run manifest: everything about
// the machine and build needed to judge whether two reports are
// comparable.
type Environment struct {
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	Workers       int    `json:"workers,omitempty"` // -j at capture time
	GoVersion     string `json:"go_version"`
	ModuleVersion string `json:"module_version,omitempty"`
	VCSRevision   string `json:"vcs_revision,omitempty"`
	VCSTime       string `json:"vcs_time,omitempty"`
	VCSDirty      bool   `json:"vcs_dirty,omitempty"`
}

// CaptureEnv records the current process environment, reading VCS
// provenance from the binary's embedded build info (populated for
// `go build`/`go run` inside a git checkout; empty under `go test`).
func CaptureEnv(workers int) Environment {
	env := Environment{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workers:   workers,
		GoVersion: runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		env.ModuleVersion = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.VCSRevision = s.Value
			case "vcs.time":
				env.VCSTime = s.Value
			case "vcs.modified":
				env.VCSDirty = s.Value == "true"
			}
		}
	}
	return env
}

// VersionString renders the provenance line `azoo version` prints:
// module version, VCS revision (with a -dirty suffix when the working
// tree was modified), and the Go toolchain.
func VersionString() string {
	env := CaptureEnv(0)
	version := env.ModuleVersion
	if version == "" || version == "(devel)" {
		version = "devel"
	}
	rev := env.VCSRevision
	if rev == "" {
		rev = "unknown"
	} else if len(rev) > 12 {
		rev = rev[:12]
	}
	if env.VCSDirty {
		rev += "-dirty"
	}
	return fmt.Sprintf("azoo %s (revision %s, %s %s/%s)",
		version, rev, env.GoVersion, env.GOOS, env.GOARCH)
}
