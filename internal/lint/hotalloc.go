package lint

// HotAlloc turns the ROADMAP's "zero allocations in the tick path"
// discipline from a bench-observed property (the flaky-prone allocs/op
// gate) into a compiler-checked fact: it computes the transitive closure
// of functions reachable from the hot-path roots — the kernel's
// Tick/Step/AdvanceTo/NextWakeup/sduIdle family, flight.Recorder.Emit,
// and the schedsim/rtsim event dispatchers — and reports every heap
// allocation on those paths with the full root-to-site call chain as
// evidence, exactly like puritycheck reports determinism hazards.
//
// What counts as an allocation (each with the escape/dataflow heuristic
// that keeps the reused-scratch idioms clean):
//
//   - make/new: always.
//   - append: a *self*-append (x = append(x, ...)) into a parameter,
//     receiver field or other caller-owned storage is the sanctioned
//     scratch-reuse idiom (amortised, capacity-guarded at the call sites
//     that matter) and is allowed; a self-append into a slice freshly
//     allocated in the same function (a make/nil/literal definition
//     reaches the append, per the reaching-definitions pass) allocates
//     every call and is flagged, as is any non-self append.
//   - composite literals: slice and map literals always allocate;
//     &T{...} is flagged when the pointer escapes (returned, passed to a
//     call, stored into a field/index/channel or captured) — a value
//     struct literal passed by value stays on the stack and is clean.
//   - closures: a function literal that captures an enclosing variable
//     allocates its environment; capture-free literals compile to static
//     functions and are clean.
//   - interface boxing: fmt.* and errors.* calls (formatting and error
//     wrapping box their operands) and explicit conversions of concrete
//     values to interface types.
//   - strings: concatenation with + and string<->[]byte/[]rune
//     conversions.
//
// Calls through function values are unresolvable in the call graph and
// deliberately not treated as allocating (same policy as puritycheck):
// the injected observers would drown every real finding.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc is the zero-alloc hot-path analyzer.
var HotAlloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "reports call paths from hot-path roots (Tick/Step/AdvanceTo/NextWakeup/sduIdle, flight.Recorder.Emit, the schedsim/rtsim dispatchers) to heap allocations — make/new, escaping composite literals, non-scratch append, capturing closures, interface boxing, string concat — with the full call chain",
	RunModule: runHotAlloc,
}

// hotRootPkgs are the packages whose hot-family functions are roots.
var hotRootPkgs = map[string]bool{
	"l15": true, "soc": true, "cpu": true,
	"schedsim": true, "rtsim": true, "flight": true,
}

// hotRootNames are the root function names common to every hot package:
// the kernel tick/step family and the wakeup protocol.
var hotRootNames = map[string]bool{
	"Tick": true, "Step": true, "StepIssue": true, "StepDual": true,
	"AdvanceTo": true, "NextWakeup": true, "sduIdle": true,
}

// hotRootExtra adds the per-package roots: the flight recorder's
// zero-alloc Emit, the SoC's SDU advance and countdown-loop replay (entry
// and settle points), and the event dispatchers of the two DES simulators.
var hotRootExtra = map[string]map[string]bool{
	"flight": {"Emit": true},
	"soc": {"advanceSDUs": true, "globalTime": true, "trackLoop": true,
		"holdLoops": true, "replayedBetween": true, "settleLoop": true,
		"settleLoops": true, "interruptLoop": true, "storeLoops": true},
	"schedsim": {"runInstance": true, "runInstanceEvents": true},
	"rtsim":    {"dispatch": true, "dispatchTicked": true},
}

// isHotRoot reports whether node is a hot-path root.
func isHotRoot(node *CallNode) bool {
	if node.Decl == nil || node.Pkg == nil {
		return false
	}
	pkg := node.Pkg.Types.Name()
	if !hotRootPkgs[pkg] {
		return false
	}
	name := node.Decl.Name.Name
	return hotRootNames[name] || hotRootExtra[pkg][name]
}

func runHotAlloc(mp *ModulePass) error {
	g := mp.Graph
	fs := NewFactSet(g)

	for _, id := range g.SortedIDs() {
		node := g.Nodes[id]
		if node.Decl == nil {
			continue
		}
		seedAllocFacts(fs, node)
	}

	fs.Propagate()

	reported := map[Fact]bool{}
	for _, id := range g.SortedIDs() {
		node := g.Nodes[id]
		if !isHotRoot(node) {
			continue
		}
		for _, f := range fs.FactsOf(id) {
			if f.Kind != "alloc" || reported[f] {
				continue
			}
			reported[f] = true
			chain := fs.Chain(id, f)
			mp.ReportAt(f.Origin, chain,
				"heap allocation on the hot path from %s: %s (%s); the tick/dispatch path must allocate nothing — hoist into a reused scratch buffer or a config-epoch precompute",
				DisplayName(node.Fn), f.Sink, ChainString(chain))
		}
	}
	return nil
}

// seedAllocFacts walks node's body (closures included — their allocations
// are attributed to the declaring function, matching the call graph's
// closure policy) and seeds one "alloc" fact per allocation site.
func seedAllocFacts(fs *FactSet, node *CallNode) {
	pkg := node.Pkg
	seed := func(pos token.Pos, sink string) {
		fs.Seed(node.ID, Fact{
			Kind:   "alloc",
			Sink:   sink,
			Origin: pkg.Fset.Position(pos),
		})
	}

	// The reaching-defs solution is built lazily: most functions have no
	// append and never need it.
	var rd *ReachingDefs
	reaching := func(use *ast.Ident) []*Def {
		if rd == nil {
			rd = NewCFG(node.Decl.Body).ReachingDefs(pkg.Info, node.Decl)
		}
		return rd.DefsReaching(use)
	}

	handledAppend := map[*ast.CallExpr]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinCall(pkg, call, "append") || len(call.Args) == 0 {
					continue
				}
				handledAppend[call] = true
				operand := ast.Unparen(call.Args[0])
				// x = append(x[:i], x[i+1:]...) is the in-place delete
				// idiom: the destination shares x's backing array.
				if slice, ok := operand.(*ast.SliceExpr); ok {
					operand = ast.Unparen(slice.X)
				}
				if i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs) && sameRef(pkg, n.Lhs[i], operand) {
					checkSelfAppend(pkg, call, reaching, seed)
					continue
				}
				seed(call.Pos(), "append copies into a new backing array (result not reassigned to its operand)")
			}
		case *ast.CallExpr:
			if isBuiltinCall(pkg, n, "append") {
				if !handledAppend[n] {
					seed(n.Pos(), "append result used as a fresh value")
				}
				return true
			}
			classifyAllocCall(pkg, n, seed)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && escapes(pkg, node.Decl.Body, n) {
					seed(cl.Pos(), "escaping &composite literal")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					seed(n.Pos(), "slice literal")
				case *types.Map:
					seed(n.Pos(), "map literal")
				}
			}
		case *ast.FuncLit:
			if captures(pkg, n) {
				seed(n.Pos(), "closure captures enclosing variables")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pkg.Info.Types[n]; ok {
					if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						seed(n.Pos(), "string concatenation")
					}
				}
			}
		}
		return true
	})
}

// checkSelfAppend applies the scratch-reuse policy to x = append(x, ...):
// allowed when x is caller-owned storage (parameter, receiver field,
// dereferenced pointer, package variable), flagged when a definition that
// freshly allocates in this function reaches the append.
func checkSelfAppend(pkg *Package, call *ast.CallExpr, reaching func(*ast.Ident) []*Def, seed func(token.Pos, string)) {
	target := ast.Unparen(call.Args[0])
	id, ok := target.(*ast.Ident)
	if !ok {
		// Field, index or pointer-deref target: caller-owned scratch.
		return
	}
	for _, def := range reaching(id) {
		if def.RHS == nil {
			continue // parameter or multi-value def: caller-owned
		}
		if allocatesSlice(pkg, def.RHS) {
			seed(call.Pos(), "append into a slice freshly allocated each call (defined at line "+itoaLint(pkg.Fset.Position(def.Site.Pos()).Line)+")")
			return
		}
	}
}

// allocatesSlice reports whether the defining expression freshly
// allocates backing storage: make, a slice literal, or nil (first append
// will allocate).
func allocatesSlice(pkg *Package, rhs ast.Expr) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		return isBuiltinCall(pkg, e, "make")
	case *ast.CompositeLit:
		if tv, ok := pkg.Info.Types[e]; ok {
			_, isSlice := tv.Type.Underlying().(*types.Slice)
			return isSlice
		}
	case *ast.Ident:
		return e.Name == "nil"
	}
	return false
}

// classifyAllocCall seeds allocation facts for call expressions:
// make/new, fmt/errors wrapping, interface conversions and
// string<->bytes conversions.
func classifyAllocCall(pkg *Package, call *ast.CallExpr, seed func(token.Pos, string)) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if isBuiltinCall(pkg, call, "make") {
		seed(call.Pos(), "make")
		return
	}
	if isBuiltinCall(pkg, call, "new") {
		seed(call.Pos(), "new")
		return
	}

	// Conversions: T(x) where T is an interface (boxing) or a
	// string<->[]byte/[]rune pair (copies).
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := pkg.Info.Types[call.Args[0]]; ok && !types.IsInterface(atv.Type) {
				seed(call.Pos(), "conversion boxes a concrete value into an interface")
			}
			return
		}
		if len(call.Args) == 1 && isStringBytesConv(pkg, tv.Type, call.Args[0]) {
			seed(call.Pos(), "string<->bytes conversion copies")
		}
		return
	}

	// fmt/errors: formatting and wrapping box and allocate.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt":
				seed(call.Pos(), "fmt."+fn.Name()+" (interface boxing + formatting)")
			case "errors":
				// Is/As/Unwrap inspect without allocating.
				if fn.Name() == "New" || fn.Name() == "Join" {
					seed(call.Pos(), "errors."+fn.Name()+" (error wrapping)")
				}
			}
		}
	}
}

// isStringBytesConv reports whether converting arg to target copies
// between string and []byte/[]rune.
func isStringBytesConv(pkg *Package, target types.Type, arg ast.Expr) bool {
	atv, ok := pkg.Info.Types[arg]
	if !ok {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(target) && isByteRuneSlice(atv.Type)) ||
		(isByteRuneSlice(target) && isStr(atv.Type))
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// escapes applies the pointer-escape heuristic to the &T{...} expression
// addr inside body: the pointer escapes when it is returned, passed to a
// call, stored into a field/index/channel/map, assigned to anything but a
// plain local, or appears inside another composite literal. Assignment to
// a local followed by escaping *uses* of that local also escapes.
func escapes(pkg *Package, body *ast.BlockStmt, addr ast.Expr) bool {
	var local *types.Var // when addr is assigned to exactly one plain local
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if containsExpr(r, addr) {
					esc = true
				}
			}
		case *ast.CallExpr:
			for _, a := range n.Args {
				if containsExpr(a, addr) {
					esc = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if e != addr && containsExpr(e, addr) {
					esc = true
				}
				if e == addr {
					esc = true
				}
			}
		case *ast.SendStmt:
			if containsExpr(n.Value, addr) {
				esc = true
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if !containsExpr(r, addr) {
					continue
				}
				if i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						if v, ok := objOf(pkg, id).(*types.Var); ok && !v.IsField() && v.Parent() != pkg.Types.Scope() {
							if local == nil {
								local = v
								continue
							}
						}
					}
				}
				esc = true // stored into a field/index/package var/multi-assign
			}
		}
		return true
	})
	if esc || local == nil {
		return esc
	}
	// Track the local's value uses. Reads/writes *through* the pointer
	// (p.field, *p, p[i] — including method calls on p) dereference it in
	// place and do not escape it; only the bare pointer value flowing
	// into a return, call argument, send, composite literal or a
	// non-local assignment does.
	deref := derefBases(body)
	useEscapes := func(tree ast.Node) bool { return usesVarValue(pkg, tree, local, deref) }
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if useEscapes(r) {
					esc = true
				}
			}
		case *ast.CallExpr:
			for _, a := range n.Args {
				if useEscapes(a) {
					esc = true
				}
			}
		case *ast.SendStmt:
			if useEscapes(n.Value) {
				esc = true
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if !useEscapes(r) {
					continue
				}
				// Reassigning to the same local is fine; anything else
				// (field, index, another var) escapes.
				if i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						if v, ok := objOf(pkg, id).(*types.Var); ok && v == local {
							continue
						}
					}
				}
				esc = true
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if useEscapes(e) {
					esc = true
				}
			}
		}
		return true
	})
	return esc
}

// containsExpr reports whether tree contains the exact node target.
func containsExpr(tree ast.Node, target ast.Expr) bool {
	found := false
	ast.Inspect(tree, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// derefBases collects identifiers appearing as the base of a selector,
// star or index expression — uses that dereference a pointer in place
// rather than copying its value.
func derefBases(tree ast.Node) map[*ast.Ident]bool {
	m := map[*ast.Ident]bool{}
	ast.Inspect(tree, func(n ast.Node) bool {
		var x ast.Expr
		switch e := n.(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		}
		if x != nil {
			if id, ok := ast.Unparen(x).(*ast.Ident); ok {
				m[id] = true
			}
		}
		return true
	})
	return m
}

// usesVarValue reports whether tree uses v's bare value (an occurrence
// that is not a deref base).
func usesVarValue(pkg *Package, tree ast.Node, v *types.Var, deref map[*ast.Ident]bool) bool {
	found := false
	ast.Inspect(tree, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objOf(pkg, id) == v && !deref[id] {
			found = true
		}
		return !found
	})
	return found
}

// objOf resolves an identifier to its object, checking uses then defs.
func objOf(pkg *Package, id *ast.Ident) types.Object {
	if o, ok := pkg.Info.Uses[id]; ok {
		return o
	}
	return pkg.Info.Defs[id]
}

// captures reports whether the function literal references a variable
// declared outside itself (its environment must then be heap-allocated).
func captures(pkg *Package, fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures (no environment).
		if v.Parent() == pkg.Types.Scope() || v.Parent() == types.Universe {
			return true
		}
		// Declared inside the literal (params included)?
		if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
			return true
		}
		found = true
		return false
	})
	return found
}

// sameRef reports whether two expressions statically denote the same
// storage location: same variable, same field chain on the same base,
// same pointer deref.
func sameRef(pkg *Package, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		bi, ok := b.(*ast.Ident)
		return ok && objOf(pkg, a) != nil && objOf(pkg, a) == objOf(pkg, bi)
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == bs.Sel.Name && sameRef(pkg, a.X, bs.X)
	case *ast.StarExpr:
		bs, ok := b.(*ast.StarExpr)
		return ok && sameRef(pkg, a.X, bs.X)
	}
	return false
}

// itoaLint is a tiny allocation-free-enough int formatter for messages.
func itoaLint(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
