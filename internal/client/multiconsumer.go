package client

import (
	"fmt"

	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/sim"
)

// MultiRDMAConsumer subscribes to several topic partitions on ONE broker and
// refreshes the availability metadata for all of them with a single RDMA
// Read of its contiguous slot region — the design of Figure 9: "as the
// metadata region is contiguous, a consumer only needs a single RDMA Read to
// update the metadata for all files from which it is actively reading"
// (§4.4.2). It is a read session with one cursor per subscription; the poll
// policy, data reads, file hops and the slot refresh are the single-TP
// consumer's.
type MultiRDMAConsumer struct {
	readSession
	out []TopicRecord // what Poll returns, rewritten by every Poll
}

// TopicRecord is a record tagged with its origin partition.
type TopicRecord struct {
	Topic     string
	Partition int32
	krecord.Record
}

// tagRecords rewrites dst as recs, each tagged with the partition they came
// from.
func tagRecords(dst []TopicRecord, topic string, part int32, recs []krecord.Record) []TopicRecord {
	dst = dst[:0]
	for _, r := range recs {
		dst = append(dst, TopicRecord{Topic: topic, Partition: part, Record: r})
	}
	return dst
}

// NewMultiRDMAConsumer opens a session against the broker leading the given
// topic partitions (they must share a leader; the slot region is per broker).
func NewMultiRDMAConsumer(p *sim.Proc, e *Endpoint, broker *core.Broker) (*MultiRDMAConsumer, error) {
	c := &MultiRDMAConsumer{readSession: readSession{e: e}}
	if err := c.open(p, broker); err != nil {
		return nil, err
	}
	return c, nil
}

// Subscribe adds a partition starting at offset. The partition must be led
// by this consumer's broker.
func (c *MultiRDMAConsumer) Subscribe(p *sim.Proc, topic string, part int32, offset int64) error {
	if lead, err := c.e.leader(topic, part); err != nil || lead != c.broker {
		return fmt.Errorf("client: %s/%d is not led by %s", topic, part, c.broker.ID())
	}
	return c.subscribe(p, topic, part, offset)
}

// Subscriptions reports the subscribed partition count.
func (c *MultiRDMAConsumer) Subscriptions() int { return len(c.cursors) }

// Poll performs one consume round of the session's poll policy across all
// subscriptions, one read deep, with no retry: the rotation picks fairly
// among partitions with unread bytes, and one slot read covers them all. An
// empty result means "nothing new anywhere". The returned slice and the
// bytes its records point to are the consumer's and valid until its next
// Poll.
func (c *MultiRDMAConsumer) Poll(p *sim.Proc) ([]TopicRecord, error) {
	if !c.closed && len(c.cursors) == 0 {
		return nil, fmt.Errorf("client: no subscriptions")
	}
	cur, recs, err := c.poll(p, 1)
	if len(recs) == 0 {
		return nil, err
	}
	c.out = tagRecords(c.out, cur.topic, cur.part, recs)
	return c.out, nil
}

// Position returns the next offset for one subscription (-1 if unknown).
func (c *MultiRDMAConsumer) Position(topic string, part int32) int64 {
	for _, cur := range c.cursors {
		if cur.topic == topic && cur.part == part {
			return cur.offset
		}
	}
	return -1
}

// Close disconnects the session.
func (c *MultiRDMAConsumer) Close() { c.close() }
