package core

import "fmt"

// CheckRequestPool audits the broker's request pool for the external tests,
// once the broker is idle: no request may sit in the free list twice (a
// double release hands one request to two messages) or with a hold on it
// (somebody could still touch it); every request the pool ever made must be
// back (gets == puts); and nothing may still be referenced from the shared
// queue, a partition's purgatory or high-watermark list or a shared file's
// pending map — save, for both, at most the parked ones the caller knows of
// (a pull-replication follower always has one fetch on its way to, or in, the
// leader's purgatory).
func (b *Broker) CheckRequestPool(parked int) error {
	seen := make(map[*request]bool, len(b.reqFree))
	for _, req := range b.reqFree {
		if seen[req] {
			return fmt.Errorf("%s: request %p is in the free list twice", b.id, req)
		}
		seen[req] = true
		if req.msg != nil || req.completed || req.holds != 0 {
			return fmt.Errorf("%s: free request %p was not reset: %+v", b.id, req, *req)
		}
	}
	if out := b.reqMade - len(b.reqFree); out > parked {
		return fmt.Errorf("%s: %d of %d pooled requests are out (gets - puts), want at most %d", b.id, out, b.reqMade, parked)
	}
	referenced := b.reqQ.Len()
	for _, pt := range b.sortedPartitions() {
		referenced += len(pt.leoWaiters) + len(pt.hwPollWaiters) + len(pt.hwWaiters)
		if f := pt.produceFile; f != nil {
			referenced += len(f.pending)
		}
	}
	if referenced > parked {
		return fmt.Errorf("%s: %d requests are still queued or parked, want at most %d", b.id, referenced, parked)
	}
	return nil
}

// RequestsMade reports how many requests the pool ever allocated.
func (b *Broker) RequestsMade() int { return b.reqMade }

// Purgatory reports how many fetches are parked on the partition, followers'
// and consumers' together.
func (pt *Partition) Purgatory() int { return len(pt.leoWaiters) + len(pt.hwPollWaiters) }
