package automatazoo_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Library code must return errors, never kill the process: log.Fatal*,
// log.Panic*, and os.Exit are reserved for the binaries under cmd/ and
// examples/. This is the enforcement half of the resilience contract —
// the run governor can only guarantee "every fault surfaces as a
// structured error" if no internal package can bypass error propagation
// by exiting. (Test files are exempt: testing's own FailNow machinery is
// the right tool there.)
func TestNoProcessExitInLibraryCode(t *testing.T) {
	fset := token.NewFileSet()
	var violations []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "cmd" || name == "examples" || name == "testdata" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			fn := sel.Sel.Name
			banned := (pkg.Name == "log" && (strings.HasPrefix(fn, "Fatal") || strings.HasPrefix(fn, "Panic"))) ||
				(pkg.Name == "os" && fn == "Exit")
			if banned {
				violations = append(violations,
					fset.Position(call.Pos()).String()+": "+pkg.Name+"."+fn)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("library code calls a process-killing function: %s", v)
	}
}

// The telemetry package reads wall-clock time only through the clock seam
// in clock.go (nowNanos): spans, progress trackers, and the stall
// watchdog all take injectable clocks, which is what makes their tests
// deterministic. A stray time.Now anywhere else in the package would
// silently bypass the injected clock, so it is banned here. (time.Ticker
// and time.Duration remain fine — only the *reading* of the clock is
// seamed.)
func TestNoDirectTimeNowInTelemetry(t *testing.T) {
	fset := token.NewFileSet()
	var violations []string
	err := filepath.WalkDir("internal/telemetry", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			filepath.Base(path) == "clock.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkg.Name == "time" && sel.Sel.Name == "Now" {
				violations = append(violations,
					fset.Position(call.Pos()).String()+": time.Now")
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("telemetry reads the clock outside the clock.go seam: %s", v)
	}
}

// bannedFileOps scans parsed files for direct file mutations that bypass
// the internal/atomicio crash-safety helper: os.Rename always, and the
// whole-file write constructors (os.Create / os.WriteFile / os.OpenFile)
// when writes is true. Shared by TestAtomicArtifactWrites and its canary.
func bannedFileOps(fset *token.FileSet, f *ast.File, writes bool) []string {
	var violations []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "os" {
			return true
		}
		fn := sel.Sel.Name
		if fn == "Rename" || (writes && (fn == "Create" || fn == "WriteFile" || fn == "OpenFile")) {
			violations = append(violations, fset.Position(call.Pos()).String()+": os."+fn)
		}
		return true
	})
	return violations
}

// Run artifacts — checkpoints, report manifests, metrics snapshots —
// must be written through internal/atomicio (write-temp + fsync +
// rename), so a crash can never leave a torn-but-parseable file.
// Enforcement: os.Rename is banned everywhere outside internal/atomicio
// (a raw rename is exactly the non-durable half of the atomic pattern),
// and the artifact-writing packages (internal/report, internal/ckpt) may
// not open files for writing at all. Streaming writers — the NDJSON
// trace in cmd/azoo, the mnrl/dot export streams — are exempt by scope:
// they write incrementally by design and are not recovery inputs.
func TestAtomicArtifactWrites(t *testing.T) {
	// Canary: the detector must actually catch both op classes, or the
	// walk below proves nothing.
	fset := token.NewFileSet()
	canary, err := parser.ParseFile(fset, "canary.go", `package canary
import "os"
func bad() {
	os.Rename("a", "b")
	os.Create("c")
	os.WriteFile("d", nil, 0o600)
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := bannedFileOps(fset, canary, true); len(got) != 3 {
		t.Fatalf("canary: detector found %d of 3 planted violations: %v", len(got), got)
	}
	if got := bannedFileOps(fset, canary, false); len(got) != 1 {
		t.Fatalf("canary: rename-only detector found %d of 1 planted violations: %v", len(got), got)
	}

	writePackages := map[string]bool{
		"internal/report": true,
		"internal/ckpt":   true,
	}
	var violations []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "examples" || path == "internal/atomicio" ||
				strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		violations = append(violations, bannedFileOps(fset, f, writePackages[filepath.Dir(path)])...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("raw file mutation outside internal/atomicio (route it through the atomic-write helper): %s", v)
	}
}

// The attr package's determinism contract (see its package comment) is
// that every output path — Fold, WriteText, Publish, provenance labels —
// iterates slices in index order, never Go maps, whose iteration order is
// randomized. Maps in attr are lookup tables only (byName, codeOwner):
// this lint bans `range` over any map-typed name in the package, so a
// future change cannot quietly reintroduce schedule-dependent output.
// The check is syntactic: it collects every name declared with a map
// type (struct fields, var decls, make/literal assignments) and flags
// range statements over those names or over inline map expressions.
func TestNoMapIterationInAttr(t *testing.T) {
	fset := token.NewFileSet()
	mapNames := map[string]bool{}
	var files []*ast.File
	err := filepath.WalkDir("internal/attr", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isMakeMap := func(e ast.Expr) bool {
		if _, ok := e.(*ast.MapType); ok {
			return true
		}
		if lit, ok := e.(*ast.CompositeLit); ok {
			_, isMap := lit.Type.(*ast.MapType)
			return isMap
		}
		if call, ok := e.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && len(call.Args) > 0 {
				_, isMap := call.Args[0].(*ast.MapType)
				return isMap
			}
		}
		return false
	}
	// Pass 1: collect every name that is declared or assigned a map type.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.Field:
				if _, ok := v.Type.(*ast.MapType); ok {
					for _, name := range v.Names {
						mapNames[name.Name] = true
					}
				}
			case *ast.ValueSpec:
				if _, ok := v.Type.(*ast.MapType); ok {
					for _, name := range v.Names {
						mapNames[name.Name] = true
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range v.Rhs {
					if i < len(v.Lhs) && isMakeMap(rhs) {
						if id, ok := v.Lhs[i].(*ast.Ident); ok {
							mapNames[id.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	// Pass 2: flag range statements over map-typed names or expressions.
	var violations []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			bad := isMakeMap(rng.X)
			switch x := rng.X.(type) {
			case *ast.Ident:
				bad = bad || mapNames[x.Name]
			case *ast.SelectorExpr:
				bad = bad || mapNames[x.Sel.Name]
			}
			if bad {
				violations = append(violations,
					fset.Position(rng.Pos()).String())
			}
			return true
		})
	}
	for _, v := range violations {
		t.Errorf("attr ranges over a map (iteration order is randomized — output paths must iterate slices): %s", v)
	}
}

// hookBundleViolations is TestOneHookBundle's detector over one parsed
// file. bundlePkg exempts the two packages that define the bundles;
// enginePkg additionally bans the per-hook setter methods and the
// registry: an engine names no telemetry.Registry and calls no Counter or
// Gauge method. spanless bans naming telemetry.Spans: the engines and the
// scan drivers time no phases.
func hookBundleViolations(fset *token.FileSet, f *ast.File, bundlePkg, enginePkg, spanless bool) []string {
	isPtrTo := func(e ast.Expr, pkg, name string) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg
	}
	var violations []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.StructType:
			if bundlePkg {
				return true
			}
			var reg, gov bool
			for _, fld := range v.Fields.List {
				reg = reg || isPtrTo(fld.Type, "telemetry", "Registry")
				gov = gov || isPtrTo(fld.Type, "guard", "Governor")
			}
			if reg && gov {
				violations = append(violations, fset.Position(v.Pos()).String()+
					": struct declares both a *telemetry.Registry and a *guard.Governor (embed or hold hooks.Set / segment.Hooks)")
			}
		case *ast.SelectorExpr:
			if id, ok := v.X.(*ast.Ident); ok && enginePkg && id.Name == "telemetry" && v.Sel.Name == "Registry" {
				violations = append(violations, fset.Position(v.Pos()).String()+
					": engine names telemetry.Registry (engines count; the drivers publish)")
			}
			if id, ok := v.X.(*ast.Ident); ok && spanless && id.Name == "telemetry" && v.Sel.Name == "Spans" {
				violations = append(violations, fset.Position(v.Pos()).String()+
					": names telemetry.Spans (only the command session and the experiment harnesses time phases)")
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && enginePkg && (sel.Sel.Name == "Counter" || sel.Sel.Name == "Gauge") {
				violations = append(violations, fset.Position(v.Pos()).String()+
					": engine calls "+sel.Sel.Name+" (engines count; the drivers publish)")
			}
		case *ast.FuncDecl:
			if !enginePkg || v.Recv == nil {
				return true
			}
			switch v.Name.Name {
			case "SetRegistry", "SetTracer", "SetSpans", "SetGovernor", "SetProgress", "SetRecorder":
				violations = append(violations, fset.Position(v.Pos()).String()+
					": engine hook setter "+v.Name.Name+" (hooks attach through Attach(hooks.Set))")
			}
		}
		return true
	})
	return violations
}

// histogramCalls is TestOneHookBundle's type-checked detector over the
// files of one package: every use of a method of telemetry.Histogram,
// whose methods are atomic. An engine batches what it observes in a
// telemetry.Tally instead.
func histogramCalls(t *testing.T, fset *token.FileSet, files []*ast.File, imp types.Importer) []string {
	t.Helper()
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(files[0].Name.Name, fset, files, info); err != nil {
		t.Fatal(err)
	}
	var violations []string
	for sel, s := range info.Selections {
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		n, ok := recv.(*types.Named)
		if s.Kind() == types.MethodVal && ok && n.Obj().Name() == "Histogram" && n.Obj().Pkg().Path() == "automatazoo/internal/telemetry" {
			violations = append(violations, fset.Position(sel.Pos()).String()+
				": engine calls telemetry.Histogram."+sel.Sel.Name+" (batch in a telemetry.Tally)")
		}
	}
	slices.Sort(violations)
	return violations
}

// One hook bundle from flag to engine: the engine-level hook list is
// spelled once (internal/hooks.Set) and the driver-level one once
// (internal/segment.Hooks); every other layer embeds or holds one of the
// two. Enforcement: outside those two packages no struct may declare
// both a *telemetry.Registry and a *guard.Governor field — the signature
// of a re-spelled bundle — and no type in the engine packages may grow a
// per-hook setter again (their one attachment point is Attach). The
// registry stays out of the engines: they keep their counts in Stats,
// and the driver that owns a scan unit publishes them
// (segment.Hooks.Publish), so engine code names no telemetry.Registry and
// calls no Counter or Gauge. Nor does it call a telemetry.Histogram
// method, all atomic: the Frontier histogram is fed through a
// telemetry.Tally, flushed per chunk, so no atomic operation runs per
// symbol. Phase spans stay above the scan: the engines and the scan
// drivers (segment, partition, scan) name no telemetry.Spans.
func TestOneHookBundle(t *testing.T) {
	// Canary: the detector must catch both classes, or the walk below
	// proves nothing.
	fset := token.NewFileSet()
	canary, err := parser.ParseFile(fset, "canary.go", `package canary
type respelled struct {
	Registry *telemetry.Registry
	Governor *guard.Governor
}
type fine struct {
	Registry *telemetry.Registry
}
type Engine struct{}
func (e *Engine) SetGovernor(g *guard.Governor) {}
func (e *Engine) SetOffset(off int64)           {}
func (e *Engine) flush(r *telemetry.Registry) {
	r.Counter("sim.symbols").Add(1)
	r.Gauge("dfa.states").Set(1)
}
func (e *Engine) time(s *telemetry.Spans) {}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	// As an engine package: the re-spelled struct, the setter, three
	// telemetry.Registry names, a Counter and a Gauge call, and the
	// telemetry.Spans name.
	if got := hookBundleViolations(fset, canary, false, true, true); len(got) != 8 {
		t.Fatalf("canary: detector found %d of 8 planted violations: %v", len(got), got)
	}
	// Elsewhere only the re-spelled struct is one.
	if got := hookBundleViolations(fset, canary, false, false, false); len(got) != 1 {
		t.Fatalf("canary: detector found %d of 1 planted violation outside the engines: %v", len(got), got)
	}
	// In a bundle-defining scan driver (segment) only the Spans name is.
	if got := hookBundleViolations(fset, canary, true, false, true); len(got) != 1 {
		t.Fatalf("canary: detector found %d of 1 planted violation in a scan driver: %v", len(got), got)
	}
	if got := hookBundleViolations(fset, canary, true, false, false); len(got) != 0 {
		t.Fatalf("canary: exempt package still flagged: %v", got)
	}
	// The type-checked half: two Histogram method calls, one through a
	// field as the engines reach it, and one method value; the Tally's
	// methods are fine.
	imp := importer.ForCompiler(fset, "source", nil)
	histCanary, err := parser.ParseFile(fset, "histcanary.go", `package canary
import "automatazoo/internal/telemetry"
type set struct{ Frontier *telemetry.Histogram }
func step(h set, n int64) {
	h.Frontier.Observe(n)
	_ = h.Frontier.Count()
	observe := h.Frontier.Observe
	tally := telemetry.NewTally(h.Frontier)
	tally.Observe(n)
	tally.Flush(1)
	_ = observe
}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := histogramCalls(t, fset, []*ast.File{histCanary}, imp); len(got) != 3 {
		t.Fatalf("canary: detector found %d of 3 planted Histogram method uses: %v", len(got), got)
	}

	bundlePackages := map[string]bool{"internal/hooks": true, "internal/segment": true}
	enginePackages := map[string]bool{"internal/sim": true, "internal/dfa": true, "internal/prefilter": true}
	spanlessPackages := map[string]bool{"internal/sim": true, "internal/dfa": true, "internal/prefilter": true,
		"internal/segment": true, "internal/partition": true, "internal/scan": true}
	var violations []string
	engineFiles := map[string][]*ast.File{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		violations = append(violations, hookBundleViolations(fset, f, bundlePackages[dir], enginePackages[dir], spanlessPackages[dir])...)
		if enginePackages[dir] {
			engineFiles[dir] = append(engineFiles[dir], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(engineFiles) != len(enginePackages) {
		t.Fatalf("found the files of %d engine packages, want %d", len(engineFiles), len(enginePackages))
	}
	for _, files := range engineFiles {
		violations = append(violations, histogramCalls(t, fset, files, imp)...)
	}
	for _, v := range violations {
		t.Errorf("hook bundle re-spelled: %s", v)
	}
}

// goFiles parses every .go file under root (tests included when tests is
// set), skipping testdata, dot directories and bench/ — the repository
// benchmark is its own module with its own rules.
func goFiles(t *testing.T, root string, tests bool) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || path == "bench" && root != "bench" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files[path] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// internal/report is a format package: it describes and encodes a run
// manifest and measures nothing. The import list is the enforcement — an
// engine, the suite registry or a scan driver showing up here means a
// second measuring instrument is growing next to bench/.
func TestReportIsAFormatPackage(t *testing.T) {
	allowed := map[string]bool{
		"automatazoo/internal/telemetry": true,
		"automatazoo/internal/attr":      true,
		"automatazoo/internal/atomicio":  true,
	}
	fset, files := goFiles(t, "internal/report", false)
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if strings.HasPrefix(path, "automatazoo/") && !allowed[path] {
				t.Errorf("%s: internal/report imports %s (allowed: telemetry, attr, atomicio)",
					fset.Position(imp.Pos()), path)
			}
		}
	}
}

// Speed has one instrument, the repository benchmark under bench/, whose
// per-layer probes time single operations under its paired protocol. A
// func Benchmark* in this module would be a second, unpaired set of
// numbers.
func TestNoGoBenchmarksInRootModule(t *testing.T) {
	fset, files := goFiles(t, ".", true)
	for path, f := range files {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				t.Errorf("%s: %s — measure it as a bench/cmd/azprobe layer instead",
					fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	}
}

// The engines carry no strategy knobs: an Options type or a
// NewWithOptions constructor keeps a second code path alive in a hot loop
// for the sake of a configuration no production caller sets. Each engine
// has one constructor and one behaviour; a test that needs another budget
// sets it on the engine it builds.
func TestNoAblationKnobsInEngines(t *testing.T) {
	// Canary: the detector must catch both kinds, or the walk below proves
	// nothing.
	fset := token.NewFileSet()
	canary, err := parser.ParseFile(fset, "canary.go", `package canary
type Options struct{ BudgetFactor int }
type options struct{}
func NewWithOptions(a *automata.Automaton, opts Options) (*Engine, error) { return nil, nil }
func New(a *automata.Automaton) (*Engine, error) { return nil, nil }
func (e *Engine) NewWithOptions() {}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ablationKnobs(fset, canary); len(got) != 2 {
		t.Fatalf("canary: detector found %d of 2 planted violations: %v", len(got), got)
	}
	for _, dir := range []string{"internal/sim", "internal/dfa", "internal/prefilter"} {
		fset, files := goFiles(t, dir, false)
		for _, f := range files {
			for _, v := range ablationKnobs(fset, f) {
				t.Errorf("%s: %s", dir, v)
			}
		}
	}
}

// ablationKnobs lists f's top-level Options types and NewWithOptions
// functions.
func ablationKnobs(fset *token.FileSet, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Options" {
					out = append(out, fset.Position(ts.Pos()).String()+": declares an Options type")
				}
			}
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == "NewWithOptions" {
				out = append(out, fset.Position(d.Pos()).String()+": declares NewWithOptions")
			}
		}
	}
	return out
}

// Every command azoo dispatches is listed by its usage text and vice
// versa, and the retired perf-gate commands are neither (so they fall to
// the default branch: usage, exit 2 — cmd/azoo's TestRetiredCommandsAreUsageErrors
// runs that).
func TestDispatchMatchesUsage(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cmd/azoo/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dispatched, listed := map[string]bool{}, map[string]bool{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil {
			continue
		}
		switch fn.Name.Name {
		case "run":
			ast.Inspect(fn, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				if tag, ok := sw.Tag.(*ast.Ident); !ok || tag.Name != "cmd" {
					return true
				}
				for _, stmt := range sw.Body.List {
					for _, e := range stmt.(*ast.CaseClause).List {
						if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							dispatched[strings.Trim(lit.Value, `"`)] = true
						}
					}
				}
				return false
			})
		case "usage":
			ast.Inspect(fn, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				_, cmds, _ := strings.Cut(strings.Trim(lit.Value, "`"), "commands:\n")
				for _, line := range strings.Split(cmds, "\n") {
					if fields := strings.Fields(line); len(fields) > 0 {
						for _, name := range strings.Split(fields[0], "|") {
							listed[name] = true
						}
					}
				}
				return true
			})
		}
	}
	if len(dispatched) == 0 || len(listed) == 0 {
		t.Fatalf("found %d dispatched and %d listed commands; the detector no longer matches cmd/azoo/main.go", len(dispatched), len(listed))
	}
	for name := range dispatched {
		if !listed[name] {
			t.Errorf("azoo dispatches %q but usage() does not list it", name)
		}
	}
	for name := range listed {
		if !dispatched[name] {
			t.Errorf("usage() lists %q but azoo does not dispatch it", name)
		}
	}
	// The second name is spelled in halves so that grepping the tree for it
	// finds only a real comeback.
	for _, name := range []string{"bench", "bench" + "diff"} {
		if dispatched[name] || listed[name] {
			t.Errorf("retired command %q is back (the perf instrument is bench/)", name)
		}
	}
}

// scanPathViolations is TestOneScanPath's detector over one parsed file of
// directory dir: imports and package-function calls banned there, and —
// outside internal/scan — any assignment of a checkpoint saver's Capture.
func scanPathViolations(fset *token.FileSet, f *ast.File, dir string) []string {
	banned := map[string][]string{
		"internal/ckpt":     {"automatazoo/internal/dfa"},
		"cmd/azoo":          {"automatazoo/internal/dfa", "automatazoo/internal/segment", "automatazoo/internal/prefilter"},
		"internal/difftest": {"automatazoo/internal/prefilter", "automatazoo/internal/partition"},
	}
	bannedCalls := map[string][]string{
		"internal/difftest": {"segment.Run", "sim.New"},
	}
	var violations []string
	for _, imp := range f.Imports {
		if path := strings.Trim(imp.Path.Value, `"`); slices.Contains(banned[dir], path) {
			violations = append(violations, fset.Position(imp.Pos()).String()+": "+dir+" imports "+path)
		}
	}
	if dir == "internal/scan" {
		return violations
	}
	capture := func(n ast.Node) {
		violations = append(violations, fset.Position(n.Pos()).String()+": assigns ckpt.Saver.Capture")
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && slices.Contains(bannedCalls[dir], x.Name+"."+sel.Sel.Name) {
					violations = append(violations, fset.Position(v.Pos()).String()+": "+dir+" calls "+x.Name+"."+sel.Sel.Name)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Capture" {
					capture(lhs)
				}
			}
		case *ast.CompositeLit:
			typ, ok := v.Type.(*ast.SelectorExpr)
			if !ok || typ.Sel.Name != "Saver" {
				return true
			}
			for _, elt := range v.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Capture" {
						capture(kv)
					}
				}
			}
		}
		return true
	})
	return violations
}

// One scan path: internal/scan's Run is the only driver that scans a
// benchmark's streams, for every engine, layout and checkpoint. Its
// enforcement: the checkpoint format does not know the dfa engine;
// cmd/azoo reaches no engine and no segment scanner except through scan;
// the differential oracle drives its cells through scan too (no
// prefilter or partition import, no segment.Run or sim.New call); and
// only scan decides what a checkpoint holds (no other non-test code
// assigns ckpt.Saver.Capture).
func TestOneScanPath(t *testing.T) {
	// Canary: the detector must catch every class, or the walk below
	// proves nothing.
	fset := token.NewFileSet()
	canary, err := parser.ParseFile(fset, "canary.go", `package canary
import (
	"automatazoo/internal/dfa"
	"automatazoo/internal/partition"
	"automatazoo/internal/prefilter"
	"automatazoo/internal/segment"
)
func bad(sv *ckpt.Saver) {
	sv.Capture = nil
	_ = &ckpt.Saver{Path: "f", Capture: nil}
	_ = &ckpt.Checkpoint{Meta: ckpt.Meta{}}
	segment.Run(nil, nil, nil, segment.Options{})
	_ = sim.New(nil)
	_ = dfa.New(nil)
}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	for dir, want := range map[string]int{"cmd/azoo": 5, "internal/ckpt": 3, "internal/scan": 0, "internal/stats": 2, "internal/difftest": 6} {
		if got := scanPathViolations(fset, canary, dir); len(got) != want {
			t.Fatalf("canary as %s: detector found %d of %d planted violations: %v", dir, len(got), want, got)
		}
	}

	fset, files := goFiles(t, ".", false)
	for path, f := range files {
		for _, v := range scanPathViolations(fset, f, filepath.Dir(path)) {
			t.Errorf("second scan path: %s", v)
		}
	}
}

// orphanPackages returns the internal/ packages among files (non-test
// files keyed by slash path) that no non-test file in cmd/, internal/ or
// examples/ outside the package's own directory imports.
func orphanPackages(files map[string]*ast.File) []string {
	pkgs, imported := map[string]bool{}, map[string]bool{}
	for path, f := range files {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		if !strings.HasPrefix(dir, "cmd/") && !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "examples/") {
			continue
		}
		for _, imp := range f.Imports {
			if p := strings.TrimPrefix(strings.Trim(imp.Path.Value, `"`), "automatazoo/"); p != dir {
				imported[p] = true
			}
		}
	}
	var orphans []string
	for p := range pkgs {
		if !imported[p] {
			orphans = append(orphans, p)
		}
	}
	slices.Sort(orphans)
	return orphans
}

// Every internal/ package earns its place: some non-test code outside it
// imports it. A package only its own tests run is dead code.
func TestEveryInternalPackageIsImported(t *testing.T) {
	// Canary: internal/a imports internal/b, internal/c imports only
	// itself and the root imports internal/a — so a and c are orphans.
	fset := token.NewFileSet()
	canary := map[string]*ast.File{}
	for path, src := range map[string]string{
		"internal/a/a.go":  `package a; import _ "automatazoo/internal/b"`,
		"internal/b/b.go":  `package b`,
		"internal/c/c.go":  `package c; import _ "automatazoo/internal/c"`,
		"internal/c/c2.go": `package c`,
		"doc.go":           `package automatazoo; import _ "automatazoo/internal/a"`,
	} {
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		canary[path] = f
	}
	if got, want := orphanPackages(canary), []string{"internal/a", "internal/c"}; !slices.Equal(got, want) {
		t.Fatalf("canary: detector found orphans %v, want %v", got, want)
	}

	_, files := goFiles(t, ".", false)
	for _, p := range orphanPackages(files) {
		t.Errorf("%s has no non-test importer in cmd/, internal/ or examples/: use it or delete it", p)
	}
}

// orphanExports returns the exported functions and methods declared in
// the internal/ files among files (non-test files keyed by slash path)
// that nothing refers to, as "dir.Func" or "dir.Type.Method". A function
// is keyed by its package: it is referred to by a bare identifier of its
// name inside its own package or by a selector of its name on an import
// of that package. A method is matched by name, by any other selector of
// its name. A method name shared with a live one hides an orphan, so the
// lint can miss dead code but never reports live code.
func orphanExports(files map[string]*ast.File) []string {
	type decl struct{ key, use string }
	var decls []decl
	used := map[string]bool{} // "dir.Func" and ".Method"
	for path, f := range files {
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs := map[string]string{} // import name -> package dir
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = strings.TrimPrefix(p, "automatazoo/")
		}
		declaring := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declaring[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			if fn.Recv == nil {
				key := dir + "." + fn.Name.Name
				decls = append(decls, decl{key, key})
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			decls = append(decls, decl{dir + "." + recv.(*ast.Ident).Name + "." + fn.Name.Name, "." + fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := v.X.(*ast.Ident); ok && pkgs[x.Name] != "" {
					used[pkgs[x.Name]+"."+v.Sel.Name] = true
					return false
				}
				used["."+v.Sel.Name] = true
			case *ast.Ident:
				if !declaring[v] {
					used[dir+"."+v.Name] = true
				}
			}
			return true
		})
	}
	var orphans []string
	for _, d := range decls {
		if !used[d.use] {
			orphans = append(orphans, d.key)
		}
	}
	slices.Sort(orphans)
	return orphans
}

// Every exported function and method under internal/ has a caller
// outside test files: in its own package, another package, cmd/,
// examples/ or the benchmark module under bench/. An export only tests
// call is dead code. The allow-list holds what is called from outside
// this repository's source — by the standard library through an
// interface, or by a test through a seam or oracle the program itself
// never uses — and the dead exports not yet deleted, each named with the
// test that goes with it. An entry that stops being an orphan fails the
// test, so the list only shrinks.
func TestEveryInternalExportIsCalled(t *testing.T) {
	// Canary: internal/a exports F (called from the root), G (called
	// only inside a), H (never called, though internal/b calls its own
	// H), method T.M (called through a selector in internal/b) and T.N
	// (never called, though a standard library function shares its name);
	// internal/c exports F, never called though a.F is — so a.H, a.T.N
	// and c.F are orphans.
	fset := token.NewFileSet()
	canary := map[string]*ast.File{}
	for path, src := range map[string]string{
		"internal/a/a.go": `package a
type T struct{}
func F() { G() }
func G() {}
func H() {}
func (T) M() {}
func (*T) N() {}`,
		"internal/b/b.go": `package b
import ("automatazoo/internal/a"; "strings")
func use(t a.T) { t.M(); _ = strings.N; H() }
func H() {}`,
		"internal/c/c.go": `package c
func F() {}`,
		"doc.go": `package automatazoo; import z "automatazoo/internal/a"; var _ = z.F`,
	} {
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		canary[path] = f
	}
	if got, want := orphanExports(canary), []string{"internal/a.H", "internal/a.T.N", "internal/c.F"}; !slices.Equal(got, want) {
		t.Fatalf("canary: detector found orphans %v, want %v", got, want)
	}

	allowed := map[string]string{
		// Called from outside this repository's source.
		"internal/guard.TripError.Unwrap":      "errors.Is and errors.As unwrap a trip through it",
		"internal/rf.candHeap.Less":            "container/heap.Interface",
		"internal/rf.candHeap.Pop":             "container/heap.Interface",
		"internal/rf.candHeap.Push":            "container/heap.Interface",
		"internal/rf.candHeap.Swap":            "container/heap.Interface",
		"internal/telemetry.Progress.SetClock": "injected-clock test seam",
		"internal/telemetry.Spans.SetClock":    "injected-clock test seam",
		"internal/mnrl.ReadAutomaton":          "MNRL reader: the round-trip oracle for export and the FuzzMNRLLoad target",
		"internal/regex.Compile":               "one-pattern front end: the regex tests' and FuzzRegexCompile's entry point",
		"internal/report.ReadFile":             "manifest reader: the read-back oracle of the manifest tests",
	}
	_, files := goFiles(t, ".", false)
	_, benchFiles := goFiles(t, "bench", false)
	for path, f := range benchFiles {
		files[path] = f
	}
	orphans := orphanExports(files)
	for _, o := range orphans {
		if _, ok := allowed[o]; !ok {
			t.Errorf("%s has no caller outside test files: use it or delete it", o)
		}
	}
	for o := range allowed {
		if !slices.Contains(orphans, o) {
			t.Errorf("allow-list entry %s is called or gone: drop the entry", o)
		}
	}
}
