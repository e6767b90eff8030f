// Package kwire is a hotalloc fixture: each allocation class inside an
// annotated function, each guard idiom that exempts one, and the static
// callee discipline.
package kwire

import "fmt"

type rec struct{ n int }

type enc struct {
	buf  []byte
	pool []*rec
}

//kdlint:hotpath
func makeBad(n int) []byte {
	return make([]byte, n) // want `make allocates`
}

//kdlint:hotpath
func newBad() *rec {
	return new(rec) // want `new allocates`
}

//kdlint:hotpath
func sliceLitBad() []int {
	return []int{1, 2, 3} // want `slice literal .* allocates its backing array`
}

//kdlint:hotpath
func mapLitBad() map[string]int {
	return map[string]int{} // want `map literal .* allocates`
}

//kdlint:hotpath
func escapeBad() *rec {
	return &rec{} // want `&kwire\.rec escapes to the heap`
}

// poolGet allocates only on a pool miss, under the len guard.
//
//kdlint:hotpath pool-miss allocation sits under the len guard (grow-once)
func poolGet(e *enc) *rec {
	if len(e.pool) == 0 {
		return &rec{}
	}
	r := e.pool[len(e.pool)-1]
	e.pool = e.pool[:len(e.pool)-1]
	return r
}

// growOnce re-sizes only when capacity is insufficient.
//
//kdlint:hotpath grows only when capacity is insufficient (grow-once idiom)
func growOnce(e *enc, n int) {
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	e.buf = e.buf[:n]
}

//kdlint:hotpath
func concatBad(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//kdlint:hotpath
func convBad(b []byte) string {
	return string(b) // want `string conversion copies`
}

// convGuarded rewrites the string only when the value changed; both the
// comparison operand and the guarded conversion are free.
//
//kdlint:hotpath reallocates only when the decoded value changed (change-guard idiom)
func convGuarded(dst *string, b []byte) {
	if *dst != string(b) {
		*dst = string(b)
	}
}

//kdlint:hotpath
func closureBad(n int) func() int {
	return func() int { return n } // want `closure captures n and escapes`
}

//kdlint:hotpath
func goBad() {
	go leaf() // want `spawns a goroutine on the hot path`
}

//kdlint:hotpath
func leaf() {}

//kdlint:hotpath
func boxBad(r rec) any {
	var v any
	v = r // want `r is boxed into an interface on assignment`
	return v
}

// boxPtr boxes a pointer, which the runtime stores without allocating.
//
//kdlint:hotpath pointer-shaped values box for free
func boxPtr(r *rec) any {
	var v any
	v = r
	return v
}

//kdlint:hotpath
func sink(v any) { _ = v }

//kdlint:hotpath
func argBoxBad(x int) {
	sink(x) // want `argument x is boxed into an interface parameter`
}

// argBoxConst passes a small integer constant, served from the runtime's
// static boxes.
//
//kdlint:hotpath small integer constants are statically boxed
func argBoxConst() {
	sink(7)
}

func helper() {}

//kdlint:hotpath
func calleeBad() {
	helper() // want `calls .*helper, which is not marked //kdlint:hotpath`
}

//kdlint:hotpath
func denyBad() {
	fmt.Println() // want `calls fmt\.Println, which allocates`
}

// coldPath may build its error expensively: the branch terminates by
// returning a non-nil error, so it is off the hot path.
//
//kdlint:hotpath failure branches are cold and may allocate
func coldPath(e *enc, n int) error {
	if n > len(e.buf) {
		return fmt.Errorf("kwire: short buffer: %d > %d", n, len(e.buf))
	}
	e.buf = e.buf[:n]
	return nil
}

//kdlint:hotpath
func appendLocalBad(n int) int {
	var tmp []int
	for i := 0; i < n; i++ {
		tmp = append(tmp, i) // want `append onto function-local slice tmp allocates its backing array`
	}
	return len(tmp)
}

// appendOwned grows a caller-owned buffer: the warm-capacity idiom.
//
//kdlint:hotpath amortized growth of the caller-owned buffer
func appendOwned(e *enc, b byte) {
	e.buf = append(e.buf, b)
}

//kdlint:hotpath
func allowedAlloc(n int) []byte {
	//kdlint:allow hotalloc one-time setup buffer measured off the steady-state path
	return make([]byte, n)
}

// ring is generic: the marker on a method of ring[T] must be found from a
// call on an instantiated receiver.
type ring[T any] struct{ items []T }

//kdlint:hotpath
func (r *ring[T]) head() T { return r.items[0] }

//kdlint:hotpath
func genericCallee(r *ring[int]) int {
	return r.head()
}
