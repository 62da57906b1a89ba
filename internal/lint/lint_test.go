package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Analyzer cases: one flagged and one clean testdata package per
// analyzer, plus the scope/suppression variants.

func TestDetMapFlagged(t *testing.T)    { runAnalyzerTest(t, DetMap, "detmap/flagged") }
func TestDetMapClean(t *testing.T)      { runAnalyzerTest(t, DetMap, "detmap/clean") }
func TestDetMapOutOfScope(t *testing.T) { runAnalyzerTest(t, DetMap, "detmap/outofscope") }

func TestWallTimeFlagged(t *testing.T) { runAnalyzerTest(t, WallTime, "walltime/flagged") }
func TestWallTimeClean(t *testing.T)   { runAnalyzerTest(t, WallTime, "walltime/clean") }

// TestWallTimeHarness pins the runner exemption: a package named runner may
// read the wall clock (progress/ETA gauges) but still may not touch the
// global math/rand generator.
func TestWallTimeHarness(t *testing.T) { runAnalyzerTest(t, WallTime, "walltime/harness") }

// TestWallTimeFlightRecorder pins that package flight has no clock
// carve-out: its events are cycle-stamped sim-time, so a wall-clock read
// there is flagged, as is a global-rand draw.
func TestWallTimeFlightRecorder(t *testing.T) { runAnalyzerTest(t, WallTime, "walltime/flightrec") }

// TestWallTimeTelemetry pins the telemetry exemption: the sampler layer
// may read the wall clock to timestamp operator-facing observations, while
// the global-rand ban holds.
func TestWallTimeTelemetry(t *testing.T) { runAnalyzerTest(t, WallTime, "walltime/telemetry") }

func TestBitMaskFlagged(t *testing.T) { runAnalyzerTest(t, BitMask, "bitmask/flagged") }
func TestBitMaskClean(t *testing.T)   { runAnalyzerTest(t, BitMask, "bitmask/clean") }

func TestAtomicHandleFlagged(t *testing.T) { runAnalyzerTest(t, AtomicHandle, "atomichandle/flagged") }
func TestAtomicHandleClean(t *testing.T)   { runAnalyzerTest(t, AtomicHandle, "atomichandle/clean") }

func TestErrDropFlagged(t *testing.T) { runAnalyzerTest(t, ErrDrop, "errdrop/flagged") }
func TestErrDropClean(t *testing.T)   { runAnalyzerTest(t, ErrDrop, "errdrop/clean") }
func TestErrDropFlight(t *testing.T)  { runAnalyzerTest(t, ErrDrop, "errdrop/flight") }

func TestDocCommentFlagged(t *testing.T) { runAnalyzerTest(t, DocComment, "doccomment/flagged") }
func TestDocCommentClean(t *testing.T)   { runAnalyzerTest(t, DocComment, "doccomment/clean") }

// TestDocCommentScope pins the analyzer's reach: testdata (empty path),
// internal/ and cmd/ packages are in scope; the module root and vendored
// paths are not.
func TestDocCommentScope(t *testing.T) {
	for path, want := range map[string]bool{
		"":                          true,
		"l15cache/internal/runner":  true,
		"l15cache/cmd/makespan":     true,
		"l15cache":                  false,
		"example.com/other/package": false,
	} {
		if got := docCommentScope(path); got != want {
			t.Errorf("docCommentScope(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestExhaustiveFlagged(t *testing.T) { runAnalyzerTest(t, Exhaustive, "exhaustive/flagged") }
func TestExhaustiveClean(t *testing.T)   { runAnalyzerTest(t, Exhaustive, "exhaustive/clean") }

func TestPurityCheckFlagged(t *testing.T) { runAnalyzerTest(t, PurityCheck, "puritycheck/flagged") }
func TestPurityCheckClean(t *testing.T)   { runAnalyzerTest(t, PurityCheck, "puritycheck/clean") }

// TestPurityCheckFlightRecorder pins the interprocedural half: package
// flight's Run-family roots report wall-clock, global-rand and fs-read
// hazards alike — it has no carve-out.
func TestPurityCheckFlightRecorder(t *testing.T) {
	runAnalyzerTest(t, PurityCheck, "puritycheck/flightrec")
}

func TestLockGuardFlagged(t *testing.T) { runAnalyzerTest(t, LockGuard, "lockguard/flagged") }
func TestLockGuardClean(t *testing.T)   { runAnalyzerTest(t, LockGuard, "lockguard/clean") }

func TestHotAllocFlagged(t *testing.T) { runAnalyzerTest(t, HotAlloc, "hotalloc/flagged") }
func TestHotAllocClean(t *testing.T)   { runAnalyzerTest(t, HotAlloc, "hotalloc/clean") }

func TestWakeupSafeFlagged(t *testing.T) { runAnalyzerTest(t, WakeupSafe, "wakeupsafe/flagged") }
func TestWakeupSafeClean(t *testing.T)   { runAnalyzerTest(t, WakeupSafe, "wakeupsafe/clean") }

func TestFingerprintCompleteFlagged(t *testing.T) {
	runAnalyzerTest(t, FingerprintComplete, "fingerprintcomplete/flagged")
}
func TestFingerprintCompleteClean(t *testing.T) {
	runAnalyzerTest(t, FingerprintComplete, "fingerprintcomplete/clean")
}

func TestSharedCaptureFlagged(t *testing.T) {
	runAnalyzerTest(t, SharedCapture, "sharedcapture/flagged")
}
func TestSharedCaptureClean(t *testing.T) {
	runAnalyzerTest(t, SharedCapture, "sharedcapture/clean")
}

// TestIgnoreDirectives exercises suppression end to end: justified ignores
// silence findings, malformed ones are themselves reported.
func TestIgnoreDirectives(t *testing.T) { runAnalyzerTest(t, WallTime, "ignore") }

// TestRunModuleKeepsSuppressed pins that RunModule marks suppressed
// findings instead of dropping them, carrying the directive's
// justification, while Run still filters them out.
func TestRunModuleKeepsSuppressed(t *testing.T) {
	pkg, err := LoadDir("testdata/src/ignore")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	all, err := RunModule([]*Package{pkg}, []*Analyzer{WallTime})
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	var suppressed []Diagnostic
	for _, d := range all {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	if len(suppressed) == 0 {
		t.Fatal("RunModule dropped the suppressed findings; expected them marked")
	}
	for _, d := range suppressed {
		if d.Justification == "" {
			t.Errorf("suppressed finding %s carries no justification", d)
		}
	}
	kept, err := Run(pkg, []*Analyzer{WallTime})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(kept) >= len(all) {
		t.Errorf("Run kept %d of %d diagnostics; expected suppressed ones filtered", len(kept), len(all))
	}
	for _, d := range kept {
		if d.Suppressed {
			t.Errorf("Run returned a suppressed diagnostic: %s", d)
		}
	}
}

// TestIgnores pins the -ignores audit listing over the suppression testdata.
func TestIgnores(t *testing.T) {
	pkg, err := LoadDir("testdata/src/ignore")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	entries := Ignores([]*Package{pkg})
	if len(entries) == 0 {
		t.Fatal("no ignore directives found in testdata/src/ignore")
	}
	justified := 0
	for i, e := range entries {
		if e.File == "" || e.Line == 0 || e.Analyzers == "" {
			t.Errorf("entry %+v missing file, line or analyzers", e)
		}
		if e.Justification != "" {
			justified++
		}
		if i > 0 && (entries[i-1].File > e.File ||
			(entries[i-1].File == e.File && entries[i-1].Line > e.Line)) {
			t.Errorf("entries out of order at %d: %+v after %+v", i, e, entries[i-1])
		}
	}
	if justified == 0 {
		t.Error("no justified directives listed")
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want %d", len(all), err, len(All()))
	}
	two, err := ByName("detmap, errdrop")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(two) != 2 || two[0] != DetMap || two[1] != ErrDrop {
		t.Fatalf("ByName(detmap, errdrop) = %v", two)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) did not fail")
	}
}

// TestAnalyzerTestdataMatchesRegistry ties the registry to its testdata:
// every analyzer in All() has a flagged and a clean case, and every
// testdata package except the suppression one names a registered analyzer.
// An analyzer dropped from All() would otherwise stop running everywhere
// while its own tests still pass.
func TestAnalyzerTestdataMatchesRegistry(t *testing.T) {
	registered := map[string]bool{}
	for _, a := range All() {
		registered[a.Name] = true
		for _, c := range []string{"clean", "flagged"} {
			if fi, err := os.Stat(filepath.Join("testdata", "src", a.Name, c)); err != nil || !fi.IsDir() {
				t.Errorf("analyzer %s has no testdata/src/%s/%s", a.Name, a.Name, c)
			}
		}
	}
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && d.Name() != "ignore" && !registered[d.Name()] {
			t.Errorf("testdata/src/%s names no analyzer in All()", d.Name())
		}
	}
}

func TestAnalyzerNamesUniqueAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %+v missing name or doc, or not exactly one of Run/RunModule", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestLoadModulePackages loads real module packages through the go
// list/export-data path and sanity-checks type information is present.
func TestLoadModulePackages(t *testing.T) {
	pkgs, err := Load("", "../bitmap", "../l15")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("Load returned %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || len(p.Files) == 0 || len(p.Info.Uses) == 0 {
			t.Errorf("package %s loaded without type info", p.ImportPath)
		}
	}
	if !strings.HasSuffix(pkgs[0].ImportPath, "internal/bitmap") {
		t.Errorf("unexpected import path %q", pkgs[0].ImportPath)
	}
}

var module struct {
	once  sync.Once
	diags []Diagnostic
	err   error
}

// moduleDiagnostics runs the whole suite over every package of the module
// once per test binary and returns every diagnostic, suppressed ones
// included.
func moduleDiagnostics(t *testing.T) []Diagnostic {
	t.Helper()
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	module.once.Do(func() {
		pkgs, err := Load("", "../../...")
		if err != nil {
			module.err = err
			return
		}
		module.diags, module.err = RunModule(pkgs, All())
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.diags
}

// TestModuleClean is the lint gate: no error-severity finding on the
// module may stand unless a justified //lint:ignore accepts it in source.
// Each failure prints the finding and, for interprocedural analyzers, the
// call chain that reaches it.
func TestModuleClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range moduleDiagnostics(t) {
		if d.Suppressed || d.Warning {
			continue
		}
		d.Pos.Filename = RelPath(root, d.Pos.Filename)
		var b strings.Builder
		b.WriteString(d.String())
		for _, hop := range d.Chain {
			b.WriteString("\n\tvia " + hop.Func)
			if hop.Site.IsValid() {
				b.WriteString(" at " + RelPath(root, hop.Site.String()))
			}
		}
		t.Errorf("%s\n(fix it, or accept it with //lint:ignore %s <justification> on the line or the line above)",
			b.String(), d.Analyzer)
	}
}

// TestRelPath pins the boundary cases of the path rewriter.
func TestRelPath(t *testing.T) {
	for _, tc := range []struct{ base, path, want string }{
		{"/repo", "/repo/a/b.go", "a/b.go"},
		{"/repo", "/other/b.go", "/other/b.go"},
		{"", "/repo/a/b.go", "/repo/a/b.go"},
		{"/repo", "", ""},
	} {
		if got := RelPath(tc.base, tc.path); got != tc.want {
			t.Errorf("RelPath(%q, %q) = %q, want %q", tc.base, tc.path, got, tc.want)
		}
	}
}

// TestSuiteCleanOnOwnPackage runs the full suite over internal/lint itself
// — the analyzers must hold their own code to the same standard.
func TestSuiteCleanOnOwnPackage(t *testing.T) {
	pkgs, err := Load("", ".", "./internal/fixture")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		diags, err := Run(p, All())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, d := range diags {
			t.Errorf("finding in lint suite itself: %s", d)
		}
	}
}

// TestPurityCheckMemoCarveOut loads the real experiments/runner/memo
// packages and asserts the interprocedural purity check accepts the
// content-addressed cache chain (experiments sweep -> runner.Map ->
// memo.Get -> os.ReadFile): package memo's fs-read carve-out must keep the
// disk tier from registering as a determinism hazard, while every other
// rule still applies to it.
func TestPurityCheckMemoCarveOut(t *testing.T) {
	pkgs, err := Load("", "../experiments", "../runner", "../memo")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := RunModule(pkgs, []*Analyzer{PurityCheck})
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		t.Errorf("purity finding across the memo chain: %s", d)
	}
}

// TestPurityCheckTelemetryCarveOut loads the real telemetry chain —
// experiments sweeps fan out through runner.Map, whose span layer
// publishes into telemetry.Runtime, while the flight server samples the
// merged registries — and asserts the interprocedural purity check stays
// clean: package telemetry's wall-clock carve-out must keep the sampler's
// clock reads from registering as determinism hazards, while every other
// rule still applies across the chain.
func TestPurityCheckTelemetryCarveOut(t *testing.T) {
	pkgs, err := Load("", "../experiments", "../runner", "../memo", "../flight", "../telemetry")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := RunModule(pkgs, []*Analyzer{PurityCheck})
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		t.Errorf("purity finding across the telemetry chain: %s", d)
	}
}
