package lint

// The fingerprintcomplete analyzer statically proves the memo soundness
// contract (DESIGN.md §12): every struct field a runner.Map trial's
// compute path can read must be observed by the fingerprint builder the
// call passes, or a memo hit could replay a result computed under
// different inputs. For each Map site it
//
//   - resolves the fingerprint expression (composite-literal key, or the
//     field-level reaching definitions of `cfg.Fingerprint = ...`) to a
//     builder function;
//   - walks the builder's reachable bodies collecting (a) every field it
//     reads — an observed field counts as covered even when it only
//     gates the fingerprint, like rtsim's Recorder nil-guard that
//     disables memoization — and (b) every field appearing inside a
//     memo.Encoder field-method argument;
//   - walks the shard function's reachable bodies collecting every field
//     it reads, with root-to-read chains;
//   - errors on fields of fingerprint-relevant types (types the builder
//     observes at all) that the compute path reads but the builder never
//     does, and warns on fields the builder encodes but the compute path
//     never reads (wasted key entropy, or a stale schema).
//
// Scoping the diff to types the builder observes is what keeps derived
// state out: a trial's intermediate structs (allocations, schedules,
// simulator state) are functions of the seed and the observed inputs, so
// their fields need no encoding and never enter the comparison.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FingerprintComplete is the memo-contract analyzer.
var FingerprintComplete = &Analyzer{
	Name:      "fingerprintcomplete",
	Doc:       "runner.Map fingerprints must encode every field the trial compute path reads",
	RunModule: runFingerprintComplete,
}

func runFingerprintComplete(mp *ModulePass) error {
	ff := newFieldFlow(mp.Graph)
	builderCache := map[FuncID]*reachResult{}
	type reported struct {
		pos token.Position
		msg string
	}
	seen := map[reported]bool{}

	for _, pkg := range mp.Pkgs {
		for _, site := range findMapSites(pkg) {
			for _, fpExpr := range fingerprintExprs(site) {
				builderID, builderName := builderOf(pkg, site, fpExpr)
				if builderID == "" {
					continue
				}
				node := mp.Graph.Nodes[builderID]
				if node == nil || node.Decl == nil {
					continue // export-data builder: no body to verify against
				}
				builder, ok := builderCache[builderID]
				if !ok {
					builder = ff.reach(nil, "", nil, builderID)
					builderCache[builderID] = builder
				}
				observed := map[string]bool{}
				for _, k := range builder.ReadKeys() {
					observed[k.TypeKey()] = true
				}
				for _, eu := range builder.encodes {
					for _, k := range eu.keys {
						observed[k.TypeKey()] = true
					}
				}

				compute := computeReach(ff, pkg, site)
				if compute == nil {
					continue
				}

				// Error direction: compute reads the builder never observes.
				for _, key := range compute.ReadKeys() {
					if !observed[key.TypeKey()] {
						continue
					}
					if _, ok := builder.reads[key]; ok {
						continue
					}
					ev := compute.reads[key]
					r := reported{pos: ev.pos, msg: string(key)}
					if seen[r] {
						continue
					}
					seen[r] = true
					mp.ReportAt(ev.pos, ev.chain,
						"trial compute path reads %s but fingerprint builder %s never observes it: a memo hit could replay a result computed under a different %s (path: %s)",
						key.Display(), builderName, key.FieldName(), ChainString(ev.chain))
				}

				// Warning direction: encoded fields the compute path never
				// reads. Deduplicated per encode position and field.
				for i, eu := range builder.encodes {
					for _, key := range eu.keys {
						if _, ok := compute.reads[key]; ok {
							continue
						}
						pos := builder.encPkgs[i].Fset.Position(eu.pos)
						r := reported{pos: pos, msg: "warn:" + string(key)}
						if seen[r] {
							continue
						}
						seen[r] = true
						mp.WarnAt(pos, nil,
							"fingerprint builder %s encodes %s but the trial compute path never reads it (wasted key entropy, or a stale schema)",
							builderName, key.Display())
					}
				}
			}
		}
	}
	return nil
}

// computeReach walks the shard function of a Map site. Function-literal
// shard functions are walked from their body (the call graph attributes a
// closure's calls to the enclosing declaration, which would pollute the
// read set with everything outside the closure); named functions and
// method values start at their graph node.
func computeReach(ff *fieldFlow, pkg *Package, site mapSite) *reachResult {
	switch fn := ast.Unparen(site.fnArg).(type) {
	case *ast.FuncLit:
		pos := pkg.Fset.Position(site.call.Pos())
		label := "runner.Map closure (" + pos.Filename + ":" + itoaLint(pos.Line) + ")"
		return ff.reach(pkg, label, fn.Body, "")
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fn].(*types.Func); ok {
			return ff.reach(nil, "", nil, FuncIDOf(f))
		}
	case *ast.SelectorExpr:
		if f, ok := pkg.Info.Uses[fn.Sel].(*types.Func); ok {
			return ff.reach(nil, "", nil, FuncIDOf(f))
		}
	}
	return nil
}

// builderOf resolves a fingerprint expression to the builder function it
// calls: a direct call, or a variable whose reaching definition is one.
func builderOf(pkg *Package, site mapSite, fpExpr ast.Expr) (FuncID, string) {
	switch e := ast.Unparen(fpExpr).(type) {
	case *ast.CallExpr:
		var fn *types.Func
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			fn, _ = pkg.Info.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = pkg.Info.Uses[fun.Sel].(*types.Func)
		}
		if fn != nil {
			return FuncIDOf(fn), DisplayName(fn)
		}
	case *ast.Ident:
		cfg := NewCFG(site.decl.Body)
		rd := cfg.ReachingDefs(site.pkg.Info, site.decl)
		for _, def := range rd.DefsReaching(e) {
			if def.RHS == nil {
				continue
			}
			if call, ok := ast.Unparen(def.RHS).(*ast.CallExpr); ok {
				return builderOf(pkg, site, call)
			}
		}
	}
	return "", ""
}
