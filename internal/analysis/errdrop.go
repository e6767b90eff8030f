package analysis

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags transport and replication errors that are discarded without
// a trace. Since the fault-injection subsystem landed, the error returns of
// the rdma / tcpnet / klog / core / group / client APIs are load-bearing: a
// failed PostSend or a reset connection IS the failover signal, and a call
// statement that ignores it silently turns a detectable broker crash into
// lost acks — or, in a benchmark harness, a figure measured over failed
// operations. In
// non-test code, every such error must be handled, propagated, or — when
// the drop is genuinely intentional, e.g. best-effort notifications —
// discarded visibly with `_ =` so the decision survives review.
//
// Only fully-discarded calls (expression statements, including `go` and
// `defer`) are flagged: `_ = c.Send(...)` and `v, _ := ...` are explicit
// choices the reviewer can see.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "forbid silently discarded transport/replication errors",
	Run:  runErrDrop,
}

// errDropPackages are the packages whose error returns signal transport or
// replication failure.
var errDropPackages = map[string]bool{
	"rdma":   true,
	"tcpnet": true,
	"klog":   true,
	"core":   true,
	"group":  true,
	"client": true,
}

func runErrDrop(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch v := n.(type) {
			case *ast.ExprStmt:
				call, _ = v.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = v.Call
			case *ast.DeferStmt:
				call = v.Call
			}
			if call == nil {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || !errDropPackages[pkgBase(fn.Pkg().Path())] {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			res := sig.Results()
			if res.Len() == 0 {
				return true
			}
			last := res.At(res.Len() - 1).Type()
			if !isErrorType(last) {
				return true
			}
			pass.Reportf(call.Pos(), "error from %s.%s is silently discarded; since fault injection it is the failover signal — handle it, propagate it, or drop it visibly with `_ =`", pkgBase(fn.Pkg().Path()), fn.Name())
			return true
		})
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
