package sim

import "strings"

// What the scheduler tests read of the kernel's unexported state.

// chainLen is the number of processes in the chain: running the loop, or
// blocked in the next of a process they resumed. Zero outside Run.
func (e *Env) chainLen() int {
	n := 0
	for _, p := range e.procs {
		if p.driving && !p.dead {
			n++
		}
	}
	return n
}

// deadNames lists the processes that have exited, in spawn order.
func deadNames(e *Env) string {
	var names []string
	for _, p := range e.procs {
		if p.dead {
			names = append(names, p.name)
		}
	}
	return strings.Join(names, " ")
}
