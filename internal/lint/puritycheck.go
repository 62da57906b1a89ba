package lint

import (
	"go/ast"
	"go/types"
)

// PurityCheck is the interprocedural upgrade of walltime: it computes the
// transitive closure of functions reachable from the simulator entry points
// (the Tick/Step/Run family in the simulation packages, plus every exported
// function of internal/experiments) and reports any path from an entry
// point to a determinism hazard — a wall-clock read, a global math/rand
// draw, an env/filesystem read, or an order-dependent map iteration — with
// the full call chain as evidence. The syntactic walltime check catches a
// time.Now written directly into a simulator package; this one catches the
// time.Now hidden two helper calls deep in a package walltime never looks
// at.
//
// Deliberate limits, so real findings are not drowned:
//
//   - calls through function values (trap handlers, observers, runner
//     closures received as parameters) are recorded as unknown by the call
//     graph and not treated as impure;
//   - package runner keeps its sanctioned carve-outs: wall-clock reads
//     (operator-facing progress/ETA gauges only) and filesystem reads (the
//     -checkpoint resume path) are not seeded there, while the global-rand
//     and map-order rules still apply;
//   - package telemetry keeps a wall-clock-only carve-out: its
//     sampler and runtime collector timestamp operator-facing observations
//     of the simulation, and nothing in the deterministic artifact path
//     ever reads a telemetry value back;
//   - package memo keeps a filesystem-read carve-out: the content-addressed
//     trial cache (DESIGN.md §12) keys disk entries by a hash of the full
//     trial input, so a verified read only ever replaces a computation with
//     that computation's own bytes — it can change how a result is obtained,
//     never which result. Wall-clock, global-rand and map-order rules still
//     apply there;
//   - only filesystem/env *reads* are sinks. Writes (reports, CSVs,
//     checkpoints) do not feed results back into the simulation.
var PurityCheck = &Analyzer{
	Name:      "puritycheck",
	Doc:       "reports call paths from simulator entry points (Tick/Step/Run, experiment sweeps) to wall-clock reads, global rand, env/FS reads or order-dependent map iteration, with the full call chain",
	RunModule: runPurityCheck,
}

// purityRootPkgs are the package names whose Tick/Step/Run-family methods
// and functions are treated as simulation entry points.
var purityRootPkgs = map[string]bool{
	"cpu":      true,
	"soc":      true,
	"l15":      true,
	"rtsim":    true,
	"rtos":     true,
	"sched":    true,
	"schedsim": true,
	"etm":      true,
	"monitor":  true,
	// flight is observability, not simulation, but its Emit path runs
	// inside the simulator loops, so its Run-family roots are checked too.
	"flight": true,
}

// purityRootNames are the entry-point function names within purityRootPkgs.
var purityRootNames = map[string]bool{
	"Tick": true, "Step": true, "StepIssue": true, "StepDual": true,
	"Run": true, "Simulate": true,
}

// fsReadFuncs are the os package-level functions that read the environment
// or filesystem — inputs that can differ between hosts and runs.
var fsReadFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Open": true, "OpenFile": true, "ReadFile": true, "ReadDir": true,
	"Stat": true, "Lstat": true, "Getwd": true, "Hostname": true,
	"UserHomeDir": true, "UserConfigDir": true, "UserCacheDir": true,
	"Executable": true,
}

// isPurityRoot reports whether node is a simulation entry point.
func isPurityRoot(node *CallNode) bool {
	if node.Decl == nil || node.Pkg == nil {
		return false
	}
	name := node.Pkg.Types.Name()
	if name == "experiments" {
		return node.Decl.Name.IsExported()
	}
	return purityRootPkgs[name] && purityRootNames[node.Decl.Name.Name]
}

// classifySink classifies a called function as a determinism hazard,
// returning the fact kind ("" if the call is harmless). Methods are never
// sinks: (*rand.Rand).Intn on an injected generator is the approved path.
func classifySink(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "wall-clock"
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			return "global-rand"
		}
	case "os":
		if fsReadFuncs[fn.Name()] {
			return "fs-read"
		}
	}
	return ""
}

func runPurityCheck(mp *ModulePass) error {
	g := mp.Graph
	fs := NewFactSet(g)

	// Seed intrinsic facts on every module function body.
	for _, id := range g.SortedIDs() {
		node := g.Nodes[id]
		if node.Decl == nil {
			continue
		}
		runnerExempt := node.Pkg.Types.Name() == "runner"
		memoExempt := node.Pkg.Types.Name() == "memo"
		telemetryExempt := node.Pkg.Types.Name() == "telemetry"
		for _, edge := range node.Calls {
			callee := g.Nodes[edge.Callee]
			kind := classifySink(callee.Fn)
			if kind == "" {
				continue
			}
			if runnerExempt && (kind == "wall-clock" || kind == "fs-read") {
				continue // progress gauges and checkpoint resume (see doc)
			}
			if telemetryExempt && kind == "wall-clock" {
				continue // sampler timestamps observations only (see doc)
			}
			if memoExempt && kind == "fs-read" {
				continue // content-addressed cache: a hit replays the trial's own bytes (see doc)
			}
			fs.Seed(id, Fact{
				Kind:   kind,
				Sink:   DisplayName(callee.Fn),
				Origin: node.Pkg.Fset.Position(edge.Pos),
			})
		}
		seedMapOrderFacts(fs, node)
	}

	fs.Propagate()

	// Report each hazard once, from the first (sorted) entry point that
	// reaches it, at the sink position so the fix lands where the hazard is.
	reported := map[Fact]bool{}
	for _, id := range g.SortedIDs() {
		node := g.Nodes[id]
		if !isPurityRoot(node) {
			continue
		}
		for _, f := range fs.FactsOf(id) {
			if reported[f] {
				continue
			}
			reported[f] = true
			chain := fs.Chain(id, f)
			mp.ReportAt(f.Origin, chain,
				"impure path to %s (%s) from entry point %s: %s; simulator results must not depend on host state — inject the dependency or sort",
				f.Sink, f.Kind, DisplayName(node.Fn), ChainString(chain)+" -> "+f.Sink)
		}
	}
	return nil
}

// seedMapOrderFacts marks node if its body (closures included) iterates a
// map with an order-dependent effect and no restoring sort — the same
// judgement detmap applies syntactically inside the sim packages, here
// turned into a fact that travels to whatever entry point can reach it.
func seedMapOrderFacts(fs *FactSet, node *CallNode) {
	pass := &Pass{Fset: node.Pkg.Fset, TypesInfo: node.Pkg.Info, Pkg: node.Pkg.Types}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		effect := orderSensitiveEffect(pass, rng)
		if effect == "" || sortedAfter(pass, node.Decl.Body, rng.End()) {
			return true
		}
		fs.Seed(node.ID, Fact{
			Kind:   "map-order",
			Sink:   "map iteration that " + effect,
			Origin: node.Pkg.Fset.Position(rng.For),
		})
		return true
	})
}
