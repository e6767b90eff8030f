package analysis

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` over a map when the loop body does work whose
// outcome depends on iteration order: scheduling simulation events, sending
// on the fabric/tcpnet/rdma datapaths, appending to slices or writers that
// outlive the loop (result tables, traces, responses), or appending log
// records. Go randomizes map iteration per process, so any of these turns
// into run-to-run drift — the exact failure mode the workers=1-vs-8
// byte-identical suite exists to catch, except the drift only shows up when
// the map ever holds two elements.
//
// The sanctioned idiom is the one the codebase already uses: collect the
// keys, sort them, and range over the sorted slice (see
// core.Broker.sortedPartitions). A key-collection loop — a body consisting
// solely of appending the key to a slice — is therefore exempt, but only if
// the function visibly sorts that slice afterwards.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid order-sensitive work inside unsorted map iteration",
	Run:  runMapOrder,
}

// mapOrderSinks lists functions whose call order is observable: event
// scheduling, datapath sends, log appends, and formatted output. Keyed by
// (defining package base name, function/method name).
var mapOrderSinks = map[[2]string]bool{
	{"sim", "At"}: true, {"sim", "After"}: true,
	{"sim", "AtArg"}: true, {"sim", "AfterArg"}: true,
	{"sim", "Go"}: true, {"sim", "Signal"}: true, {"sim", "Broadcast"}: true,
	{"fabric", "Deliver"}: true, {"fabric", "DeliverArg"}: true,
	{"tcpnet", "Send"}: true, {"tcpnet", "SendRaw"}: true, {"tcpnet", "Dial"}: true,
	{"rdma", "PostSend"}: true, {"rdma", "PostRecv"}: true, {"rdma", "Connect"}: true,
	{"klog", "Append"}: true, {"klog", "AppendReplicated"}: true, {"klog", "TruncateTo"}: true,
	{"klog", "CommitReserved"}: true, {"klog", "CommitReplicatedInPlace"}: true,
	{"fmt", "Print"}: true, {"fmt", "Printf"}: true, {"fmt", "Println"}: true,
	{"fmt", "Fprint"}: true, {"fmt", "Fprintf"}: true, {"fmt", "Fprintln"}: true,
	{"strings", "WriteString"}: true, {"strings", "WriteByte"}: true,
	{"strings", "WriteRune"}: true,
	{"bytes", "WriteString"}: true, {"bytes", "WriteByte"}: true,

	// The broker's one way out: behind it sit a queue push or a PostSend, which
	// this analyzer, looking one call deep, does not see from revokeFile.
	{"core", "respond"}: true,
}

func runMapOrder(pass *Pass) {
	if !isSimPackage(pass.Pkg.PkgPath) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, fd, rng)
				return true
			})
		}
	}
}

func checkMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	if slice, isCollect := collectKeysTarget(info, rng); isCollect {
		if slice != nil && sortedAfter(pass, fd, rng, slice) {
			return
		}
		pass.Reportf(rng.Pos(), "map keys collected into a slice that is never sorted; map iteration order leaks into later uses — sort the keys (see core.Broker.sortedPartitions)")
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append(outer, ...) — the element order of a slice built across
		// iterations is the map's iteration order.
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if obj := rootObject(info, call.Args[0]); obj != nil && obj.Pos() < rng.Pos() {
				pass.Reportf(call.Pos(), "append to %s (declared outside the loop) inside map iteration makes its element order nondeterministic; range over sorted keys instead", obj.Name())
			}
			return true
		}
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
			key := [2]string{pkgBase(fn.Pkg().Path()), fn.Name()}
			if mapOrderSinks[key] {
				pass.Reportf(call.Pos(), "%s.%s inside map iteration runs in nondeterministic order; range over sorted keys instead (see core.Broker.sortedPartitions)", key[0], fn.Name())
			}
		}
		return true
	})
}

// collectKeysTarget reports whether rng's body is exactly the key-collection
// idiom `s = append(s, k)`, returning the slice variable's object.
func collectKeysTarget(info *types.Info, rng *ast.RangeStmt) (types.Object, bool) {
	if len(rng.Body.List) != 1 {
		return nil, false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil, false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return nil, false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok {
		return nil, false
	}
	// Every appended element must be the key (or derived solely from it via
	// a call like string(k)); require the plain-key form, which is the only
	// one the codebase uses.
	for _, arg := range call.Args[1:] {
		if id, ok := arg.(*ast.Ident); !ok || info.ObjectOf(id) != info.ObjectOf(key) {
			return nil, false
		}
	}
	return rootObject(info, as.Lhs[0]), true
}

// sortedAfter reports whether the function sorts the collected-keys slice
// somewhere after the range statement.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, slice types.Object) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if rootObject(info, call.Args[0]) == slice {
			found = true
		}
		return true
	})
	return found
}

// calleeFunc resolves a call's static callee, if any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// rootObject returns the object of the leftmost identifier of an expression
// (x in x, x.f, x[i], x[i:j], *x), or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
