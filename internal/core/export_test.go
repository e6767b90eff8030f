package core

import "fmt"

// CheckRequestPool audits the broker's request free list for the external
// tests: no request may sit in it twice (a double release hands one request
// to two messages), and once the broker is idle every request the pool ever
// made must be back (gets == puts), save at most the parked ones the caller
// knows of (a pull-replication follower always has one fetch on its way to,
// or in, the leader's purgatory).
func (b *Broker) CheckRequestPool(parked int) error {
	seen := make(map[*request]bool, len(b.reqFree))
	for _, req := range b.reqFree {
		if seen[req] {
			return fmt.Errorf("%s: request %p is in the free list twice", b.id, req)
		}
		seen[req] = true
		if req.msg != nil || req.completed || req.queued || req.dispatching {
			return fmt.Errorf("%s: free request %p was not reset: %+v", b.id, req, *req)
		}
	}
	if out := b.reqMade - len(b.reqFree); out > parked {
		return fmt.Errorf("%s: %d of %d pooled requests are out (gets - puts), want at most %d", b.id, out, b.reqMade, parked)
	}
	return nil
}
