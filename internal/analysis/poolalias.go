package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolAlias guards the zero-copy datapath's ownership rule: a pooled wire
// buffer (bufpool.Get / bufpool.List.Get / a frame returned by
// tcpnet.Conn.Recv) is borrowed, and the recycle call — bufpool.Put,
// List.Put, Conn.Recycle, or a client transport's Recycle — returns it to
// the pool, after which a later Get may hand the same memory to someone
// else. Any alias that survives the recycle call is a use-after-free in
// slow motion: the bug only manifests when the pool's reuse pattern lines
// up, which in a deterministic simulator means it reproduces perfectly but
// far from where it was planted.
//
// Two shapes are flagged, per function:
//
//  1. use-after-recycle — the recycled variable (or a sub-slice of it) is
//     read, written, or captured after the recycle call, without being
//     reassigned a fresh buffer in between;
//  2. retained alias — the variable, or a sub-slice of it, is stored into a
//     struct field or package-level variable while the same function also
//     recycles it, so the stored alias outlives the buffer's ownership.
//
// The check is per-function and statement-ordered: it is a lint for the
// idioms this codebase uses, not an escape analysis.
var PoolAlias = &Analyzer{
	Name: "poolalias",
	Doc:  "forbid aliasing pooled wire buffers past their recycle call",
	Run:  runPoolAlias,
}

// isRecycleCall reports whether call returns a pooled buffer to its pool,
// and if so returns the recycled argument.
func isRecycleCall(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || len(call.Args) == 0 {
		return nil, false
	}
	switch {
	case fn.Pkg() != nil && pkgBase(fn.Pkg().Path()) == "bufpool" && fn.Name() == "Put":
		return call.Args[0], true
	case fn.Name() == "Recycle" && len(call.Args) == 1 && isByteSlice(info, call.Args[0]):
		// Conn.Recycle and the client transport interface's Recycle both
		// take exactly the buffer; match by shape so fakes and future
		// transports are covered too.
		return call.Args[0], true
	}
	return nil, false
}

func isByteSlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	s, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func runPoolAlias(pass *Pass) {
	if !isSimPackage(pass.Pkg.PkgPath) {
		return
	}
	for _, f := range pass.Pkg.Files {
		// Tests deliberately violate pooling invariants (e.g. scribbling
		// over a recycled frame to prove the next Get re-zeroes it), so the
		// ownership rule is enforced on non-test code only.
		if isTestFile(pass.Pkg, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPoolAlias(pass, fd.Body)
			}
		}
	}
}

func checkPoolAlias(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// Pass 1: find recycle calls whose argument roots at a local variable,
	// and every whole-variable reassignment (which transfers ownership of a
	// fresh buffer into the name, ending the recycled one's scope).
	type recycleSite struct {
		obj   types.Object
		end   token.Pos
		reach []interval // positions reachable after the recycle executes
	}
	var recycles []recycleSite
	recycled := make(map[types.Object]bool)
	reassigns := make(map[types.Object][]token.Pos)
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if arg, ok := isRecycleCall(info, v); ok {
				if obj := localRoot(info, arg); obj != nil {
					// A deferred recycle runs at function return, after
					// every textual use — it can't order before them, so it
					// only participates in the retained-alias check.
					if !deferred[v] {
						recycles = append(recycles, recycleSite{obj: obj, end: v.End(), reach: reachAfter(body, v)})
					}
					recycled[obj] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						reassigns[obj] = append(reassigns[obj], id.Pos())
					}
				}
			}
		}
		return true
	})
	if len(recycled) == 0 {
		return
	}

	// Pass 2a: uses after the recycle call.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !recycled[obj] {
			return true
		}
		// Being the target of a whole-variable assignment is ownership
		// transfer into the name, not a use of the recycled buffer.
		for _, p := range reassigns[obj] {
			if p == id.Pos() {
				return true
			}
		}
		for _, rc := range recycles {
			if rc.obj != obj || !inIntervals(rc.reach, id.Pos()) {
				continue
			}
			if reassignedBetween(reassigns[obj], rc.end, id.Pos()) {
				continue
			}
			pass.Reportf(id.Pos(), "%s was recycled back to the buffer pool at %s and may already belong to another Get caller; do not touch it afterwards", obj.Name(), pass.Pkg.Fset.Position(rc.end))
			return true
		}
		return true
	})

	// Pass 2b: aliases stored into fields or package variables while the
	// function recycles the same buffer.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			obj := localRoot(info, rhs)
			if obj == nil || !recycled[obj] {
				continue
			}
			if i >= len(as.Lhs) {
				break
			}
			if escapingStore(info, as.Lhs[i]) {
				pass.Reportf(as.Pos(), "alias of pooled buffer %s stored in %s outlives the Recycle/Put in this function; copy the bytes or drop the reference before recycling", obj.Name(), types.ExprString(as.Lhs[i]))
			}
		}
		return true
	})
}

// localRoot returns the local variable at the root of e (e, e[i:j], e[i:]),
// or nil if e does not root at a function-local *types.Var.
func localRoot(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			obj, ok := info.ObjectOf(v).(*types.Var)
			if !ok || obj.IsField() {
				return nil
			}
			if obj.Parent() == nil || obj.Parent() == obj.Pkg().Scope() {
				return nil // package-level var, not a local
			}
			return obj
		case *ast.SliceExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// escapingStore reports whether lhs names storage that outlives the current
// function: a struct field (x.f), an element of such (x.f[i]), or a
// package-level variable.
func escapingStore(info *types.Info, lhs ast.Expr) bool {
	switch v := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			return true
		}
		return false
	case *ast.IndexExpr:
		return escapingStore(info, v.X)
	case *ast.ParenExpr:
		return escapingStore(info, v.X)
	case *ast.StarExpr:
		return escapingStore(info, v.X)
	case *ast.Ident:
		obj, ok := info.ObjectOf(v).(*types.Var)
		return ok && !obj.IsField() && obj.Parent() == obj.Pkg().Scope()
	}
	return false
}

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

func reassignedBetween(positions []token.Pos, after, before token.Pos) bool {
	for _, p := range positions {
		if p > after && p < before {
			return true
		}
	}
	return false
}
