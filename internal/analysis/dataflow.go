package analysis

// The dataflow layer is the shared engine under the v2 analyzers
// (crossnode, hotalloc, obssafe): intraprocedural def-use chains over
// go/ast + go/types, branch-aware reachability (generalized from
// poolalias's fallthrough machinery), and a cross-package fact store
// populated from //kdlint:delivery and //kdlint:hotpath directives plus
// derived facts. It is deliberately not an SSA builder: the analyzers
// reason about the idioms this codebase uses, and a positional def-use
// index over structured control flow is enough to make them precise.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ---------------------------------------------------------------------------
// Reachability (moved from poolalias, generalized to any node)
// ---------------------------------------------------------------------------

// An interval is a half-open span of source positions (start, end].
type interval struct{ start, end token.Pos }

func inIntervals(ivs []interval, pos token.Pos) bool {
	for _, iv := range ivs {
		if pos > iv.start && pos <= iv.end {
			return true
		}
	}
	return false
}

// reachAfter approximates which source positions can execute after node, for
// structured control flow: from the node to the end of its innermost block,
// then — whenever that block falls off its end rather than ending in a
// return/branch/panic — from the end of the statement owning the block to
// the end of the enclosing block, and so on outward. A recycle inside
// `if ... { Recycle(buf); continue }` therefore does not reach the rest of
// the loop body, while one in straight-line code reaches everything below
// it. Closures bound the walk: a node inside a FuncLit only reaches the
// literal's own body.
func reachAfter(body *ast.BlockStmt, node ast.Node) []interval {
	chain := ancestorChain(body, node)
	var ivs []interval
	cur := node.End()
	for i := len(chain) - 1; i >= 0; i-- {
		switch n := chain[i].(type) {
		case *ast.BlockStmt:
			ivs = append(ivs, interval{cur, n.End()})
			if stmtsTerminate(n.List) {
				return ivs
			}
			cur = n.End()
		case *ast.CaseClause:
			ivs = append(ivs, interval{cur, n.End()})
			if stmtsTerminate(n.Body) {
				return ivs
			}
			cur = n.End()
		case *ast.CommClause:
			ivs = append(ivs, interval{cur, n.End()})
			if stmtsTerminate(n.Body) {
				return ivs
			}
			cur = n.End()
		case *ast.FuncLit:
			return ivs
		case ast.Stmt:
			// The statement owning the block we just fell out of (if, for,
			// switch, ...): execution continues after it.
			cur = n.End()
		}
	}
	return ivs
}

// ancestorChain returns the path of nodes from body down to target
// (exclusive of target), or nil if target is not under body.
func ancestorChain(body *ast.BlockStmt, target ast.Node) []ast.Node {
	var stack, chain []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if chain != nil {
			return false
		}
		if n == target {
			chain = append([]ast.Node{}, stack...)
			return false
		}
		stack = append(stack, n)
		return true
	})
	return chain
}

// stmtsTerminate reports whether a statement list ends by leaving the
// enclosing region: return, break/continue/goto, or a panic call.
func stmtsTerminate(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true // break, continue, goto, fallthrough all divert
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return stmtsTerminate(last.List)
	case *ast.IfStmt:
		if elseBlock, ok := last.Else.(*ast.BlockStmt); ok {
			return stmtsTerminate(last.Body.List) && stmtsTerminate(elseBlock.List)
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Def-use chains
// ---------------------------------------------------------------------------

// A flowDef is one definition of a variable: the identifier being defined
// and the syntactic value it receives. rhs is nil when the definition has no
// single value expression (bare var declaration); rng is non-nil when the
// variable is a range clause's key or value, in which case rhs is the ranged
// operand.
type flowDef struct {
	id  *ast.Ident
	rhs ast.Expr
	rng *ast.RangeStmt
}

// funcFlow is the intraprocedural def-use index for one function body:
// every definition and every use of every object, in source order, plus a
// parent map for walking expression context (selector chains, call
// arguments, assignment sides).
type funcFlow struct {
	info   *types.Info
	body   *ast.BlockStmt
	defs   map[types.Object][]flowDef
	uses   map[types.Object][]*ast.Ident
	parent map[ast.Node]ast.Node
}

func newFuncFlow(info *types.Info, body *ast.BlockStmt) *funcFlow {
	f := &funcFlow{
		info:   info,
		body:   body,
		defs:   make(map[types.Object][]flowDef),
		uses:   make(map[types.Object][]*ast.Ident),
		parent: make(map[ast.Node]ast.Node),
	}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			f.parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		switch v := n.(type) {
		case *ast.AssignStmt:
			f.addAssign(v)
		case *ast.ValueSpec:
			f.addValueSpec(v)
		case *ast.RangeStmt:
			f.addRange(v)
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				f.uses[obj] = append(f.uses[obj], v)
			}
		}
		return true
	})
	return f
}

func (f *funcFlow) addAssign(as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := f.info.ObjectOf(id)
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0] // a, b := f() — both defs share the call
		}
		f.defs[obj] = append(f.defs[obj], flowDef{id: id, rhs: rhs})
	}
}

func (f *funcFlow) addValueSpec(vs *ast.ValueSpec) {
	for i, id := range vs.Names {
		obj := f.info.ObjectOf(id)
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if len(vs.Values) == len(vs.Names) {
			rhs = vs.Values[i]
		} else if len(vs.Values) == 1 {
			rhs = vs.Values[0]
		}
		f.defs[obj] = append(f.defs[obj], flowDef{id: id, rhs: rhs})
	}
}

func (f *funcFlow) addRange(rs *ast.RangeStmt) {
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := f.info.ObjectOf(id); obj != nil {
				f.defs[obj] = append(f.defs[obj], flowDef{id: id, rhs: rs.X, rng: rs})
			}
		}
	}
}

// sources returns every definition of obj inside the body, in source order.
func (f *funcFlow) sources(obj types.Object) []flowDef { return f.defs[obj] }

// definedInBody reports whether obj has at least one definition site inside
// the body — i.e. it is a function-local variable rather than a parameter,
// receiver, captured outer variable, or package-level object.
func (f *funcFlow) definedInBody(obj types.Object) bool {
	for _, d := range f.defs[obj] {
		if f.info.Defs[d.id] != nil {
			return true
		}
	}
	return false
}

// parentOf returns the syntactic parent of n within the body, or nil.
func (f *funcFlow) parentOf(n ast.Node) ast.Node { return f.parent[n] }

// chainTop climbs the access chain starting at expr: while the parent
// dereferences further (a selector on it, a call of it, an index into it, a
// pointer dereference of it), the climb continues. The returned expression
// is the outermost access rooted at expr; chainTop(e) == e means the value
// is only read, never dereferenced.
func (f *funcFlow) chainTop(e ast.Expr) ast.Expr {
	for {
		switch p := f.parent[e].(type) {
		case *ast.SelectorExpr:
			if p.X == e {
				e = p
				continue
			}
		case *ast.CallExpr:
			if p.Fun == e {
				e = p
				continue
			}
		case *ast.IndexExpr:
			if p.X == e {
				e = p
				continue
			}
		case *ast.SliceExpr:
			if p.X == e {
				e = p
				continue
			}
		case *ast.StarExpr:
			e = p
			continue
		case *ast.ParenExpr:
			e = p
			continue
		}
		return e
	}
}

// enclosingFuncLits returns the FuncLit ancestors of n inside body,
// innermost last.
func enclosingFuncLits(body *ast.BlockStmt, n ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	for _, a := range ancestorChain(body, n) {
		if fl, ok := a.(*ast.FuncLit); ok {
			lits = append(lits, fl)
		}
	}
	return lits
}

// ---------------------------------------------------------------------------
// Cross-package facts
// ---------------------------------------------------------------------------

// Fact kinds. A fact is a statement about one function, keyed by its
// qualified name, that holds across package boundaries within a run:
//
//	delivery — the function is a blessed cross-node delivery entry point:
//	           its body, and callbacks handed to it, execute at the
//	           destination node (crossnode's allowlist);
//	hotpath  — the function must be provably allocation-free (hotalloc's
//	           trigger, and the license for other hotpath functions to
//	           call it).
const (
	factDelivery = "delivery"
	factHotpath  = "hotpath"
)

// Directive grammar (function doc comments):
//
//	//kdlint:delivery <why>   — why is mandatory: each blessed entry point
//	                            must say where its callback/body executes
//	//kdlint:hotpath [note]   — the allocation pin lives in the tests; the
//	                            note is optional
var (
	deliveryRe = regexp.MustCompile(`^//kdlint:delivery\s*(.*)$`)
	hotpathRe  = regexp.MustCompile(`^//kdlint:hotpath\s*(.*)$`)
)

// A Fact records one exported statement about a function.
type Fact struct {
	Kind    string // factDelivery or factHotpath
	Fn      string // qualified key: pkgpath[.Recv].Name
	Reason  string
	Pos     token.Position
	Derived bool // inferred (delivery callback), not written as a directive
}

// A FactSet indexes facts by kind and function key. It also accumulates
// directive-hygiene findings discovered while collecting (a delivery
// directive without a justification).
type FactSet struct {
	byKind  map[string]map[string]*Fact
	hygiene []Diagnostic
}

func newFactSet() *FactSet {
	return &FactSet{byKind: map[string]map[string]*Fact{
		factDelivery: {},
		factHotpath:  {},
	}}
}

func (fs *FactSet) add(f Fact) bool {
	m := fs.byKind[f.Kind]
	if m == nil {
		return false
	}
	if _, dup := m[f.Fn]; dup {
		return false
	}
	cp := f
	m[f.Fn] = &cp
	return true
}

func (fs *FactSet) has(kind, fn string) bool {
	return fn != "" && fs.byKind[kind][fn] != nil
}

// HasFunc reports whether the fact set holds a fact of the given kind for fn.
func (fs *FactSet) HasFunc(kind string, fn *types.Func) bool {
	return fs.has(kind, funcKey(fn))
}

// funcKey builds the qualified fact key for a types.Func:
// "pkgpath.Recv.Name" for methods, "pkgpath.Name" otherwise.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// declKey builds the same key from syntax alone, for sources that are parsed
// but not typechecked (in-module dependencies of a partial load).
func declKey(pkgPath string, fd *ast.FuncDecl) string {
	key := pkgPath + "."
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
	strip:
		for {
			switch v := t.(type) {
			case *ast.StarExpr:
				t = v.X
			case *ast.ParenExpr:
				t = v.X
			case *ast.IndexExpr: // generic receiver: Queue[T]
				t = v.X
			case *ast.IndexListExpr:
				t = v.X
			default:
				break strip
			}
		}
		if id, ok := t.(*ast.Ident); ok {
			key += id.Name + "."
		}
	}
	return key + fd.Name.Name
}

// directiveFacts extracts delivery/hotpath facts from one function
// declaration's doc comment. key identifies the function; report (optional)
// receives hygiene findings.
func directiveFacts(fset *token.FileSet, key string, fd *ast.FuncDecl, report func(Diagnostic)) []Fact {
	if fd.Doc == nil {
		return nil
	}
	var out []Fact
	for _, c := range fd.Doc.List {
		if m := deliveryRe.FindStringSubmatch(c.Text); m != nil {
			reason := strings.TrimSpace(m[1])
			if reason == "" && report != nil {
				report(Diagnostic{
					Analyzer: "kdlint",
					Pos:      fset.Position(c.Pos()),
					Message:  "//kdlint:delivery needs a justification: say where the callback or body executes",
				})
			}
			out = append(out, Fact{Kind: factDelivery, Fn: key, Reason: reason, Pos: fset.Position(c.Pos())})
		}
		if m := hotpathRe.FindStringSubmatch(c.Text); m != nil {
			out = append(out, Fact{Kind: factHotpath, Fn: key, Reason: strings.TrimSpace(m[1]), Pos: fset.Position(c.Pos())})
		}
	}
	return out
}

// collectFacts builds the fact set for a run: directive facts from every
// analyzed package, directive facts scanned from in-module dependencies
// (depFacts, produced by the loader), and derived delivery facts — a named
// function passed as a callback to a delivery entry point, or scheduled
// from inside one, itself executes at the destination, so it is sanctioned
// transitively (to a fixpoint).
func collectFacts(pkgs []*Package, depFacts []Fact) *FactSet {
	fs := newFactSet()
	for _, f := range depFacts {
		fs.add(f)
	}
	report := func(d Diagnostic) { fs.hygiene = append(fs.hygiene, d) }

	// callbackSite: a call, the function it occurs in, and the named
	// functions passed to it as func-valued arguments.
	type callbackSite struct {
		enclosing string // key of the function containing the call
		callee    string // key of the static callee ("" when dynamic)
		args      []Fact // candidate derived facts, one per func-valued arg
	}
	var sites []callbackSite

	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if isTestFile(pkg, file.Pos()) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := declKey(pkg.PkgPath, fd)
				for _, f := range directiveFacts(pkg.Fset, key, fd, report) {
					fs.add(f)
				}
				if fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					site := callbackSite{enclosing: key, callee: funcKey(calleeFunc(pkg.Info, call))}
					for _, arg := range call.Args {
						fn := funcValued(pkg.Info, arg)
						if fn == nil {
							continue
						}
						site.args = append(site.args, Fact{
							Kind:    factDelivery,
							Fn:      funcKey(fn),
							Reason:  "delivery callback of " + site.callee,
							Pos:     pkg.Fset.Position(arg.Pos()),
							Derived: true,
						})
					}
					if len(site.args) > 0 {
						sites = append(sites, site)
					}
					return true
				})
			}
		}
	}

	// Fixpoint: sanctioning flows from delivery callees to their callback
	// arguments, and from delivery functions to every callback they hand
	// onward (continuations keep executing at the same node).
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			if !fs.has(factDelivery, s.callee) && !fs.has(factDelivery, s.enclosing) {
				continue
			}
			for _, f := range s.args {
				if fs.add(f) {
					changed = true
				}
			}
		}
	}
	return fs
}

// funcValued resolves an expression used as a call argument to the named
// function or method it denotes, or nil (calls, literals, and non-function
// values do not qualify).
func funcValued(info *types.Info, e ast.Expr) *types.Func {
	switch v := e.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.ParenExpr:
		return funcValued(info, v.X)
	}
	return nil
}

// scanDepFacts parses dependency sources (comments only, no typechecking)
// and returns the delivery/hotpath directive facts they declare. It is how
// a partial load (kdlint ./internal/tcpnet/) still sees fabric's blessed
// entry points.
func scanDepFacts(deps []depSource) ([]Fact, error) {
	var out []Fact
	fset := token.NewFileSet()
	for _, d := range deps {
		for _, name := range d.goFiles {
			path := d.dir + "/" + name
			af, err := parseFileComments(fset, path)
			if err != nil {
				return nil, fmt.Errorf("scanning directives in dependency %s: %v", d.importPath, err)
			}
			for _, decl := range af.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					out = append(out, directiveFacts(fset, declKey(d.importPath, fd), fd, nil)...)
				}
			}
		}
	}
	return out, nil
}
