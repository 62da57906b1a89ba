package lint

// The field-sensitive dataflow layer behind the fingerprintcomplete and
// sharedcapture analyzers: starting from a trial compute root (the
// closure or function a runner.Map call dispatches), walk the call graph
// and collect every struct field the root can transitively *read*, each
// with the root-to-read call chain as evidence.
//
// Field identity has the same dual-view subtlety the call graph solves
// for functions: the loader type-checks each package from source while
// importers see it through export data, so the same struct field exists
// as two distinct *types.Var objects. A FieldKey is therefore a string —
// "pkgpath.TypeName.FieldName" of the struct type that declares the
// field (resolved through embedding, pointers and aliases) — identical
// for both views.
//
// Reads are collected syntactically per function body: every selector
// whose types.Selection selects a field counts, except a selector that is
// exactly the target of a plain `=`/`:=` assignment (a pure write).
// Op-assignments, inc/dec and reads feeding writes of other fields all
// count as reads, as do the implicit field hops of promoted selections
// through embedded structs. The traversal is a breadth-first walk over
// the PR 4 call graph in call-site order — deterministic, and the parent
// chain of the first visit becomes the diagnostic's evidence chain.
//
// The same walk doubles as the fingerprint-encoder coverage pass: inside
// a fingerprint builder's reachable bodies, calls to the memo.Encoder
// field methods (Str/I64/U64/F64/Bool/Bytes — matched by method name on a
// receiver type named Encoder, the convention the testdata mirrors)
// record which fields appear in encoded value arguments.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FieldKey is the stable cross-package identity of one struct field:
// "pkgpath.TypeName.FieldName" of the declaring struct type.
type FieldKey string

// TypeKey returns the declaring-type prefix ("pkgpath.TypeName").
func (k FieldKey) TypeKey() string {
	s := string(k)
	if i := strings.LastIndex(s, "."); i >= 0 {
		return s[:i]
	}
	return s
}

// FieldName returns the bare field name.
func (k FieldKey) FieldName() string {
	s := string(k)
	if i := strings.LastIndex(s, "."); i >= 0 {
		return s[i+1:]
	}
	return s
}

// Display renders the key with the package's last path element only
// ("rtsim.Config.WayBytes"), the compact form diagnostics use.
func (k FieldKey) Display() string {
	s := string(k)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		return s[i+1:]
	}
	return s
}

// fieldUse is one direct field read inside a function body.
type fieldUse struct {
	key FieldKey
	pos token.Pos
}

// encodeUse is one encoder field-method call inside a function body: the
// fields read by its value arguments.
type encodeUse struct {
	keys []FieldKey
	pos  token.Pos
}

// funcSummary caches the per-function facts the traversals combine.
type funcSummary struct {
	reads   []fieldUse
	encodes []encodeUse
	calls   []CallEdge
}

// fieldFlow owns the per-function summaries for one analyzer run.
type fieldFlow struct {
	graph     *CallGraph
	summaries map[FuncID]*funcSummary
}

func newFieldFlow(g *CallGraph) *fieldFlow {
	return &fieldFlow{graph: g, summaries: map[FuncID]*funcSummary{}}
}

// summaryOf returns (building on demand) the summary for a graph node;
// nil for functions only known through export data.
func (ff *fieldFlow) summaryOf(id FuncID) *funcSummary {
	if s, ok := ff.summaries[id]; ok {
		return s
	}
	node := ff.graph.Nodes[id]
	if node == nil || node.Decl == nil || node.Pkg == nil {
		ff.summaries[id] = nil
		return nil
	}
	s := summarize(node.Pkg, node.Decl.Body, node.Calls)
	ff.summaries[id] = s
	return s
}

// summarize builds a summary for one body. calls may be pre-resolved (the
// graph node's edges); pass nil to resolve them from the body.
func summarize(pkg *Package, body ast.Node, calls []CallEdge) *funcSummary {
	s := &funcSummary{calls: calls}
	if s.calls == nil {
		s.calls = resolveCallEdges(pkg, body)
	}
	// Selectors that are exactly the target of a plain assignment are
	// pure writes, not reads. Everything else — op-assign targets,
	// inc/dec, bases of deeper writes — reads the field.
	writeOnly := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok &&
			(as.Tok == token.ASSIGN || as.Tok == token.DEFINE) {
			for _, lhs := range as.Lhs {
				writeOnly[ast.Unparen(lhs)] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if writeOnly[n] {
				return true // the base keeps being visited: a.B in a.B.C = v still reads B
			}
			sel := pkg.Info.Selections[n]
			if sel == nil {
				return true // qualified identifier or method expression
			}
			for _, key := range selectionKeys(sel) {
				s.reads = append(s.reads, fieldUse{key: key, pos: n.Sel.Pos()})
			}
		case *ast.CallExpr:
			if eu, ok := encoderCall(pkg, n); ok {
				s.encodes = append(s.encodes, eu)
			}
		}
		return true
	})
	return s
}

// selectionKeys converts one types.Selection into the field keys it
// touches: every field hop of the index path, including the implicit hops
// of promotion through embedded structs. Method selections contribute
// only their embedded-field hops (the final index names the method).
func selectionKeys(sel *types.Selection) []FieldKey {
	idx := sel.Index()
	if sel.Kind() != types.FieldVal {
		idx = idx[:len(idx)-1]
	}
	var keys []FieldKey
	t := sel.Recv()
	for _, i := range idx {
		t = derefUnalias(t)
		named, _ := t.(*types.Named)
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			break
		}
		f := st.Field(i)
		if named != nil && named.Obj() != nil {
			key := named.Obj().Name() + "." + f.Name()
			if p := named.Obj().Pkg(); p != nil {
				key = p.Path() + "." + key
			}
			keys = append(keys, FieldKey(key))
		}
		t = f.Type()
	}
	return keys
}

// derefUnalias strips aliases and pointer indirections.
func derefUnalias(t types.Type) types.Type {
	for {
		t = types.Unalias(t)
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = ptr.Elem()
	}
}

// encoderFieldMethods are the memo.Encoder field-appending methods — the
// writes of the fingerprint contract. Matched by method name on a
// receiver type named Encoder, so the self-contained testdata mirrors
// resolve exactly like the real internal/memo type.
var encoderFieldMethods = map[string]bool{
	"Str": true, "I64": true, "U64": true, "F64": true,
	"Bool": true, "Bytes": true,
}

// encoderCall recognises e.I64("name", value...) calls and collects the
// fields their value arguments read.
func encoderCall(pkg *Package, call *ast.CallExpr) (encodeUse, bool) {
	selExpr, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !encoderFieldMethods[selExpr.Sel.Name] {
		return encodeUse{}, false
	}
	fn, ok := pkg.Info.Uses[selExpr.Sel].(*types.Func)
	if !ok {
		return encodeUse{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return encodeUse{}, false
	}
	recv := derefUnalias(sig.Recv().Type())
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Encoder" {
		return encodeUse{}, false
	}
	eu := encodeUse{pos: call.Pos()}
	if len(call.Args) < 2 {
		return eu, true
	}
	for _, arg := range call.Args[1:] {
		ast.Inspect(arg, func(n ast.Node) bool {
			sub, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s := pkg.Info.Selections[sub]; s != nil {
				eu.keys = append(eu.keys, selectionKeys(s)...)
			}
			return true
		})
	}
	return eu, true
}

// resolveCallEdges resolves the calls of one body with the same policy as
// the call graph's collectCalls — needed for roots that are function
// literals, whose calls the graph attributes to the enclosing declaration
// (walking from the enclosing node would pollute the closure's read set
// with everything the function does outside the closure).
func resolveCallEdges(pkg *Package, body ast.Node) []CallEdge {
	var edges []CallEdge
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		if tv, ok := pkg.Info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
			return true
		}
		switch fun := fun.(type) {
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
				edges = append(edges, CallEdge{Callee: FuncIDOf(fn), Pos: fun.Pos()})
			}
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				edges = append(edges, CallEdge{Callee: FuncIDOf(fn), Pos: fun.Sel.Pos()})
			}
		}
		return true
	})
	return edges
}

// readEvidence is the proof one field is readable from a root: the read
// position and the root-to-read call chain.
type readEvidence struct {
	pos   token.Position
	chain []ChainEntry
}

// reachResult is everything one traversal from a root discovers.
type reachResult struct {
	reads   map[FieldKey]readEvidence
	encodes []encodeUse // in visit order; positions resolved by pkg below
	encPkgs []*Package  // parallel to encodes: the package owning each call
}

// ReadKeys returns the read set in sorted order.
func (r *reachResult) ReadKeys() []FieldKey {
	keys := make([]FieldKey, 0, len(r.reads))
	for k := range r.reads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// visitFrame tracks how the traversal first reached a function.
type visitFrame struct {
	id     FuncID
	parent int       // index into frames; -1 = called from the root body
	site   token.Pos // call site in the parent (or root body)
}

// reach walks the call graph breadth-first from a root and accumulates
// reads and encoder calls. rootPkg/rootLabel/rootBody
// describe an inline root (a function literal); when rootBody is nil the
// walk starts at rootID's graph node instead and rootLabel defaults to
// its display name.
func (ff *fieldFlow) reach(rootPkg *Package, rootLabel string, rootBody ast.Node, rootID FuncID) *reachResult {
	res := &reachResult{reads: map[FieldKey]readEvidence{}}
	var frames []visitFrame
	visited := map[FuncID]bool{}
	queue := []int{}

	record := func(pkg *Package, sum *funcSummary, frameIdx int) {
		if sum == nil {
			return
		}
		for _, u := range sum.reads {
			if _, dup := res.reads[u.key]; dup {
				continue
			}
			res.reads[u.key] = readEvidence{
				pos:   pkg.Fset.Position(u.pos),
				chain: ff.chainTo(rootLabel, frames, frameIdx, pkg, u.pos),
			}
		}
		for _, eu := range sum.encodes {
			res.encodes = append(res.encodes, eu)
			res.encPkgs = append(res.encPkgs, pkg)
		}
	}
	enqueue := func(edges []CallEdge, parent int) {
		for _, e := range edges {
			if visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			frames = append(frames, visitFrame{id: e.Callee, parent: parent, site: e.Pos})
			queue = append(queue, len(frames)-1)
		}
	}

	if rootBody != nil {
		rootSum := summarize(rootPkg, rootBody, nil)
		record(rootPkg, rootSum, -1)
		enqueue(rootSum.calls, -1)
	} else {
		node := ff.graph.Nodes[rootID]
		if node == nil {
			return res
		}
		if rootLabel == "" && node.Fn != nil {
			rootLabel = DisplayName(node.Fn)
		}
		visited[rootID] = true
		frames = append(frames, visitFrame{id: rootID, parent: -1})
		queue = append(queue, 0)
	}

	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		node := ff.graph.Nodes[frames[idx].id]
		if node == nil || node.Decl == nil {
			continue
		}
		sum := ff.summaryOf(frames[idx].id)
		record(node.Pkg, sum, idx)
		enqueue(node.Calls, idx)
	}
	return res
}

// chainTo reconstructs the root-to-read evidence chain for a read inside
// the function at frameIdx (-1 = the root body itself).
func (ff *fieldFlow) chainTo(rootLabel string, frames []visitFrame, frameIdx int, readPkg *Package, readPos token.Pos) []ChainEntry {
	// Collect the path root -> ... -> reader by following parents.
	var path []int
	for i := frameIdx; i >= 0; i = frames[i].parent {
		path = append([]int{i}, path...)
	}
	chain := []ChainEntry{{Func: rootLabel}}
	if len(path) > 0 {
		// The root entry's site is the call that leaves the root.
		if first := frames[path[0]]; first.site.IsValid() {
			// Site positions resolve in the fileset of the package that
			// contains the call; the root and its first callee frame share
			// readPkg only when the call is in the root body. For deeper
			// hops the parent node's package resolves the site.
			chain[0].Site = resolveSite(ff.graph, frames, path[0], readPkg, first.site)
		}
	}
	for n, i := range path {
		node := ff.graph.Nodes[frames[i].id]
		if node == nil || node.Fn == nil {
			continue
		}
		e := ChainEntry{Func: DisplayName(node.Fn)}
		if n+1 < len(path) {
			if next := frames[path[n+1]]; next.site.IsValid() && node.Pkg != nil {
				e.Site = node.Pkg.Fset.Position(next.site)
			}
		} else {
			e.Site = readPkg.Fset.Position(readPos)
		}
		chain = append(chain, e)
	}
	if len(path) == 0 {
		chain[0].Site = readPkg.Fset.Position(readPos)
	}
	return chain
}

// resolveSite resolves a call position in the fileset of the calling
// frame's package (the root package for first-hop calls).
func resolveSite(g *CallGraph, frames []visitFrame, frameIdx int, rootPkg *Package, pos token.Pos) token.Position {
	parent := frames[frameIdx].parent
	if parent < 0 {
		if rootPkg != nil {
			return rootPkg.Fset.Position(pos)
		}
		return token.Position{}
	}
	if node := g.Nodes[frames[parent].id]; node != nil && node.Pkg != nil {
		return node.Pkg.Fset.Position(pos)
	}
	return token.Position{}
}

// mapSite is one runner.Map call: the config argument carrying the
// fingerprint and the shard function dispatched per trial.
type mapSite struct {
	call    *ast.CallExpr
	pkg     *Package
	decl    *ast.FuncDecl // enclosing declaration (for reaching-defs queries)
	confArg ast.Expr
	fnArg   ast.Expr
}

// findMapSites locates every runner.Map call in pkg: a call to a function
// named Map declared in a package named runner (matching both the real
// internal/runner and the testdata mirrors). The config argument is the
// one whose type carries a Fingerprint field; the shard function is the
// final argument.
func findMapSites(pkg *Package) []mapSite {
	var sites []mapSite
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var fn *types.Func
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					fn, _ = pkg.Info.Uses[fun].(*types.Func)
				case *ast.SelectorExpr:
					fn, _ = pkg.Info.Uses[fun.Sel].(*types.Func)
				}
				if fn == nil || fn.Name() != "Map" || fn.Pkg() == nil || fn.Pkg().Name() != "runner" {
					return true
				}
				if len(call.Args) < 2 {
					return true
				}
				site := mapSite{call: call, pkg: pkg, decl: fd, fnArg: call.Args[len(call.Args)-1]}
				for _, arg := range call.Args {
					if tv, ok := pkg.Info.Types[arg]; ok && hasFingerprintField(tv.Type) {
						site.confArg = arg
						break
					}
				}
				if site.confArg != nil {
					sites = append(sites, site)
				}
				return true
			})
		}
	}
	return sites
}

// hasFingerprintField reports whether t (after deref/unalias) is a struct
// with a field named Fingerprint.
func hasFingerprintField(t types.Type) bool {
	st, ok := derefUnalias(t).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Fingerprint" {
			return true
		}
	}
	return false
}

// fingerprintExprs resolves the expressions that can flow into the config
// argument's Fingerprint field at a Map site: the composite literal's
// Fingerprint key, or — when the config is a variable — the reaching
// definitions of that variable's Fingerprint field (the
// `cfg.Fingerprint = builder(...)` pattern, resolved by the field-level
// reaching-defs pass).
func fingerprintExprs(site mapSite) []ast.Expr {
	switch arg := ast.Unparen(site.confArg).(type) {
	case *ast.CompositeLit:
		return fingerprintFromLit(arg)
	case *ast.UnaryExpr:
		if arg.Op == token.AND {
			if lit, ok := ast.Unparen(arg.X).(*ast.CompositeLit); ok {
				return fingerprintFromLit(lit)
			}
		}
	case *ast.Ident:
		cfg := NewCFG(site.decl.Body)
		rd := cfg.ReachingDefs(site.pkg.Info, site.decl)
		var out []ast.Expr
		for _, def := range rd.FieldDefsReaching(arg, "Fingerprint") {
			if def.RHS == nil {
				continue
			}
			if def.Field == "Fingerprint" {
				out = append(out, def.RHS)
				continue
			}
			if lit, ok := ast.Unparen(def.RHS).(*ast.CompositeLit); ok {
				out = append(out, fingerprintFromLit(lit)...)
			}
		}
		return out
	}
	return nil
}

func fingerprintFromLit(lit *ast.CompositeLit) []ast.Expr {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Fingerprint" {
			return []ast.Expr{kv.Value}
		}
	}
	// No Fingerprint key: the field is nil, memoization is deliberately
	// disabled for this call (the runner contract), nothing to check.
	return nil
}
