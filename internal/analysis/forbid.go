package analysis

import (
	"go/ast"
	"go/types"
)

// The three rules in this file are pattern matches of one shape: a set of
// functions that must not be used, the packages the ban holds in, and the
// syntactic position it holds at. One walk (forbid) finds every reference to
// a function and asks the rule about the function and where it stands; the
// three literals below are the table.

// A useRule forbids using some functions, in some packages, in some position.
type useRule struct {
	name, doc string
	in        func(pkgPath string) bool // the packages the rule holds in
	tests     bool                      // whether _test.go files are checked too
	// callee returns the finding's message when fn is one of the functions
	// the rule is about, "" otherwise.
	callee func(fn *types.Func) string
	// at reports whether a reference in this position is forbidden: call is
	// the call the function is the callee of (nil when it is only named, as
	// in `now := time.Now`), parent the node directly above that call or
	// bare reference.
	at func(info *types.Info, call *ast.CallExpr, parent ast.Node) bool
}

// SimClock forbids wall-clock time and unseeded (global) randomness inside
// simulation packages. Every result table in this repo is reproduced from a
// deterministic discrete-event simulation: the only clock is sim.Env's
// virtual time and the only randomness is the seeded *rand.Rand the kernel
// plumbs down (sim.Env.Rand, chaos.Plan.Seed). A single time.Now or global
// rand.Intn in simulated code desynchronizes runs and silently breaks the
// byte-identical figure guarantee — at workers=8 it would not even fail
// loudly, just produce tables that drift between machines.
//
// Genuine wall-clock uses (the bench runner timing real elapsed host time,
// real-time test scaffolding) carry a //kdlint:allow simclock <reason>.
var SimClock = forbid(useRule{
	name:   "simclock",
	doc:    "forbid wall-clock time and global math/rand in simulation packages",
	in:     isSimPackage,
	tests:  true,
	callee: wallClockOrGlobalRand,
	at:     anywhere,
})

// ErrDrop flags transport and replication errors that are discarded without
// a trace. Since the fault-injection subsystem landed, the error returns of
// the rdma / tcpnet / klog / core / group / client APIs are load-bearing: a
// failed PostSend or a reset connection IS the failover signal, and a call
// statement that ignores it silently turns a detectable broker crash into
// lost acks — or, in a benchmark harness, a figure measured over failed
// operations. In non-test code, every such error must be handled,
// propagated, or — when the drop is genuinely intentional, e.g. best-effort
// notifications — discarded visibly with `_ =` so the decision survives
// review.
//
// Only fully-discarded calls (expression statements, including `go` and
// `defer`) are flagged: `_ = c.Send(...)` and `v, _ := ...` are explicit
// choices the reviewer can see.
var ErrDrop = forbid(useRule{
	name:   "errdrop",
	doc:    "forbid silently discarded transport/replication errors",
	in:     func(string) bool { return true },
	callee: transportError,
	at:     bareStatement,
})

// ObsSafe enforces the instrument-caching half of the zero-perturbation
// telemetry contract (DESIGN.md §10, PR 7): an internal/obs instrument
// (Counter, Gauge, Histogram, tracer Track) is fetched from its registry
// exactly once, at construction, and cached in a struct field — the
// nil-safe no-op pattern. Fetching on a hot path would hash the name per
// event; worse, a miss would mint a new instrument mid-run and skew the
// figures the simulation is reproducing.
//
// A fetch call is therefore only legal where construction caching happens:
// as a composite-literal field value (track: o.Track(name)) or on the right
// of an assignment whose target is a struct field or package variable
// (n.obsMsgs = o.Counter(...)). Anything else — chaining a method off the
// fetch, passing it straight into a call, binding it to a throwaway local —
// is a finding.
//
// Obs.Tracer() is not a fetch: it is a plain field read, cheap by design,
// and legitimately called on hot paths. The obs package itself is exempt:
// it is the provider, and its plumbing (Obs.Counter forwarding to
// Registry.Counter) is the thing being cached around. Tests are exempt:
// they poke instruments ad hoc by design.
var ObsSafe = forbid(useRule{
	name:   "obssafe",
	doc:    "require obs instruments to be cached in fields at construction",
	in:     func(pkgPath string) bool { return isSimPackage(pkgPath) && pkgBase(pkgPath) != "obs" },
	callee: obsFetch,
	at:     notCachingStore,
})

// forbid builds the analyzer for one rule: it walks every file the rule
// covers and reports each reference to one of the rule's functions that
// sits in the rule's position.
func forbid(r useRule) *Analyzer {
	run := func(pass *Pass) {
		if !r.in(pass.Pkg.PkgPath) {
			return
		}
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			if !r.tests && isTestFile(pass.Pkg, f.Pos()) {
				continue
			}
			var stack []ast.Node // ancestors of the node being visited, outermost first
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				msg := r.callee(fn)
				if msg == "" {
					return true
				}
				// Climb from the name to the whole reference (pkg.F, x.M),
				// then to the call it is the callee of, if any.
				i := len(stack) - 1
				if sel, ok := stack[i-1].(*ast.SelectorExpr); ok && sel.Sel == id {
					i--
				}
				ref := stack[i]
				var call *ast.CallExpr
				if c, ok := stack[i-1].(*ast.CallExpr); ok && c.Fun == ref {
					call, i = c, i-1
				}
				if r.at(info, call, stack[i-1]) {
					pass.Reportf(ref.Pos(), "%s", msg)
				}
				return true
			})
		}
	}
	return &Analyzer{Name: r.name, Doc: r.doc, Run: run}
}

// Positions.

// anywhere: called or merely named, the function may not appear at all.
func anywhere(*types.Info, *ast.CallExpr, ast.Node) bool { return true }

// bareStatement: the call is a statement of its own (plain, go or defer), so
// every result is dropped.
func bareStatement(_ *types.Info, call *ast.CallExpr, parent ast.Node) bool {
	switch parent.(type) {
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		return call != nil
	}
	return false
}

// notCachingStore: the call's result goes anywhere but into storage that
// outlives the function — a composite-literal field value, or the right-hand
// side of an assignment to a struct field or package variable.
func notCachingStore(info *types.Info, call *ast.CallExpr, parent ast.Node) bool {
	if call == nil {
		return false
	}
	switch p := parent.(type) {
	case *ast.KeyValueExpr:
		return p.Value != ast.Expr(call)
	case *ast.CompositeLit:
		return false // positional field value
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == ast.Expr(call) && i < len(p.Lhs) {
				return !escapingStore(info, p.Lhs[i])
			}
		}
	}
	return true
}

// Callee sets.

// forbiddenTimeFuncs are the time functions that read or wait on the host
// clock. Types and constants (time.Duration, time.Millisecond) stay legal:
// the simulator measures virtual time in time.Duration units.
var forbiddenTimeFuncs = map[string]string{
	"Now":       "read the sim clock (Env.Now / Proc.Now) instead",
	"Since":     "subtract sim timestamps (Env.Now) instead",
	"Until":     "subtract sim timestamps (Env.Now) instead",
	"Sleep":     "use Proc.Sleep (virtual time) instead",
	"After":     "use Env.After / Env.At (virtual time) instead",
	"AfterFunc": "use Env.After / Env.At (virtual time) instead",
	"NewTimer":  "use Env.After / Env.At (virtual time) instead",
	"NewTicker": "schedule repeating Env.After events instead",
	"Tick":      "schedule repeating Env.After events instead",
}

// forbiddenRandFuncs are the math/rand package-level functions backed by the
// global, non-reproducible source. Constructors (rand.New, rand.NewSource,
// rand.NewZipf) and *rand.Rand methods remain legal — seeded generators are
// exactly what simulation code is supposed to use.
var forbiddenRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func wallClockOrGlobalRand(fn *types.Func) string {
	switch fn.Pkg().Path() {
	case "time":
		if hint, bad := forbiddenTimeFuncs[fn.Name()]; bad {
			return "time." + fn.Name() + " is wall clock, which desynchronizes the simulation; " + hint
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions use the global source; *rand.Rand
		// methods are the sanctioned seeded path.
		if fn.Type().(*types.Signature).Recv() == nil && forbiddenRandFuncs[fn.Name()] {
			return "rand." + fn.Name() + " uses the global, unseeded source; use the seeded *rand.Rand plumbed from the sim kernel (Env.Rand)"
		}
	}
	return ""
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

// transportError matches every function of errDropPackages whose last result
// is an error.
func transportError(fn *types.Func) string {
	pkg := pkgBase(fn.Pkg().Path())
	if !errDropPackages[pkg] {
		return ""
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return ""
	}
	return "error from " + pkg + "." + fn.Name() + " is silently discarded; since fault injection it is the failover signal — handle it, propagate it, or drop it visibly with `_ =`"
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// obsFetchMethods: methods of internal/obs types that fetch-or-create an
// instrument by name.
var obsFetchMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Track":     true,
}

func obsFetch(fn *types.Func) string {
	if pkgBase(fn.Pkg().Path()) != "obs" || !obsFetchMethods[fn.Name()] {
		return ""
	}
	return fn.Pkg().Name() + "." + fn.Name() + " fetched outside construction caching; store the instrument in a struct field at construction and use the nil-safe handle on the hot path (DESIGN.md §10)"
}
