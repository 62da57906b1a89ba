package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallTime enforces the simulator's clock discipline: simulated time is a
// cycle counter and randomness is an injected seed, so non-test code must
// not read the wall clock or the global math/rand generator. A wall-clock
// read smuggles host timing into results; the global generator's state is
// shared and unseeded, so two runs (or two goroutines) diverge. Two
// packages are exempted from the clock ban (never the global-rand ban):
// runner, whose wall-clock reads feed only the operator-facing
// progress/ETA gauges and trace spans; and telemetry, whose sampler
// timestamps observations of the simulation for operators and never feeds
// a value back into one.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "forbids wall-clock reads (time.Now etc.) and global math/rand use in non-test simulator code; clocks are cycle counters, randomness is injected via *rand.Rand (packages runner and telemetry may read the clock for operator-facing pacing only)",
	Run:  runWallTime,
}

// wallClockFuncs are the time functions that read or depend on the host
// clock. Pure constructors/converters (time.Duration arithmetic,
// time.Unix, parsing) stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
}

// seededRandFuncs are the math/rand package-level functions that construct
// explicit generators — the approved path. Everything else at package level
// drives the shared global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors
	"NewPCG": true, "NewChaCha8": true,
}

func runWallTime(pass *Pass) error {
	// Two sanctioned wall-clock readers: the internal/runner harness
	// (elapsed time feeds only the operator-facing progress/ETA gauges and
	// trace spans) and internal/telemetry (its sampler timestamps
	// operator-facing observations; archived deterministic artifacts never
	// read it). No reading ever reaches a simulated value, and the
	// global-rand ban is not lifted for either.
	timeExempt := pass.Pkg.Name() == "runner" || pass.Pkg.Name() == "telemetry"
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if !timeExempt && wallClockFuncs[fn.Name()] {
					pass.Reportf(id.Pos(),
						"time.%s reads the wall clock; simulator time must come from the cycle counter (inject a tick source if timing is needed)",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededRandFuncs[fn.Name()] {
					pass.Reportf(id.Pos(),
						"rand.%s uses the global generator; inject a seeded *rand.Rand so runs are reproducible",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// isTestFile reports whether the file is a _test.go file.
func isTestFile(pass *Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}
