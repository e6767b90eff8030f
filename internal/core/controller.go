package core

import (
	"sort"

	"kafkadirect/internal/kwire"
)

// This file is the cluster's minimal controller: the failure-handling slice
// of what a real deployment delegates to ZooKeeper/KRaft. The paper does not
// touch coordination (§3), so, like topic creation, it runs in-process — but
// the *consequences* of its decisions (leader re-election, follower
// truncation, replication re-establishment, grant re-acquisition) all flow
// through the simulated datapaths and cost simulated time.
//
// The failure model (see DESIGN.md §"Failure model"):
//
//   - CrashBroker isolates a broker: its fabric node goes down, every TCP
//     connection it owns is reset, and every QP on its RNIC transitions to
//     the error state (flushing posted receives as error completions and
//     cascading to the remote ends). Broker processes keep running but can
//     no longer reach anything — the crash is modeled as the network face
//     of a fail-stop, with the log surviving on "disk".
//   - After FailoverDetectDelay (session timeout + election round) the
//     controller re-elects, for every partition the dead broker led, the
//     live replica with the longest log (ties break in replica-list order).
//     Survivors truncate to their high watermark and resynchronise from the
//     new leader; for partitions the dead broker merely followed, it leaves
//     the ISR and the leader's high watermark is recomputed without it.
//   - RestartBroker brings the node back: the broker rejoins as a follower
//     of whatever leader the controller elected meanwhile (truncating its
//     log to its high watermark before refetching), or — if it restarted
//     inside the detection window — resumes leadership and rebuilds its
//     replication links.

// CrashBroker fails a broker abruptly: the node becomes unreachable, its
// connections reset and its QPs error out, and leader failover for its
// partitions is scheduled after FailoverDetectDelay. Idempotent while down.
func (c *Cluster) CrashBroker(id string) {
	b := c.broker(id)
	if c.down[id] {
		return
	}
	if c.down == nil {
		c.down = make(map[string]bool)
	}
	c.down[id] = true
	b.node.SetDown(true)
	b.host.ResetConns()
	b.dev.FailAllQPs("broker crash")
	c.env.After(c.cfg.FailoverDetectDelay, func() { c.failover(id) })
}

// RestartBroker recovers a crashed broker. Partitions it now follows resync
// through their replication datapath (pull fetchers redial and truncate on
// their own; push leaders are asked for a fresh link); partitions it still
// leads — a restart inside the detection window — rebuild their push links.
func (c *Cluster) RestartBroker(id string) {
	b := c.broker(id)
	if !c.down[id] {
		return
	}
	delete(c.down, id)
	b.node.SetDown(false)
	for _, pt := range b.sortedPartitions() {
		if len(pt.replicas) <= 1 {
			continue
		}
		if pt.IsLeader() {
			if c.cfg.RDMAReplication {
				pt.pushRepl = newPushReplicator(b, pt, true)
			}
			continue
		}
		lb := c.byName[pt.leaderID]
		if lb == nil || c.down[pt.leaderID] {
			continue // leaderless; nothing to rejoin yet
		}
		if c.cfg.RDMAReplication {
			lpt := lb.Partition(pt.topic, pt.index)
			if lpt != nil && lpt.pushRepl != nil {
				lpt.pushRepl.addLink(b, true)
			}
		} else if !pt.fetcherActive {
			// The broker led this partition before crashing (so it never had
			// a fetcher) and was demoted while down: start pulling.
			b.startPullFetcher(pt)
		}
	}
}

// failover runs one detection round after a crash: re-elect leaders for the
// dead broker's partitions and shrink the ISR where it followed.
func (c *Cluster) failover(deadID string) {
	if !c.down[deadID] {
		return // restarted before the session timeout expired
	}
	names := make([]string, 0, len(c.topics))
	for name := range c.topics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ct := c.topics[name]
		for pi := range ct.parts {
			pm := &ct.parts[pi]
			if !replicaListed(pm.Replicas, deadID) {
				continue
			}
			if pm.Leader != deadID {
				// A follower died: it leaves the ISR, so the leader's high
				// watermark no longer waits for it.
				if !c.down[pm.Leader] {
					if lpt := c.broker(pm.Leader).Partition(name, pm.Partition); lpt != nil {
						lpt.recomputeHW()
						c.obsISRChanges.Inc()
					}
				}
				continue
			}
			c.electLeader(name, pm)
		}
	}
}

// electLeader promotes the live replica with the longest log (Kafka's
// unclean-election-disabled rule keeps this safe: every acked record lives
// below the high watermark, which every ISR member has).
func (c *Cluster) electLeader(topic string, pm *kwire.PartitionMeta) {
	var newLeader *Broker
	bestLEO := int64(-1)
	for _, id := range pm.Replicas {
		if c.down[id] {
			continue
		}
		b := c.broker(id)
		pt := b.Partition(topic, pm.Partition)
		if pt == nil {
			continue
		}
		if leo := pt.log.NextOffset(); leo > bestLEO {
			bestLEO = leo
			newLeader = b
		}
	}
	if newLeader == nil {
		return // no live replica: the partition stays unavailable
	}
	pm.Leader = newLeader.id
	c.obsISRChanges.Inc()
	c.obsElections.Inc()
	// Propagate the new epoch to every replica's local state; the dead
	// broker learns it from the controller when it restarts.
	for _, id := range pm.Replicas {
		if pt := c.broker(id).Partition(topic, pm.Partition); pt != nil {
			pt.leaderID = newLeader.id
		}
	}
	lpt := newLeader.Partition(topic, pm.Partition)
	if c.cfg.RDMAReplication {
		lpt.pushRepl = newPushReplicator(newLeader, lpt, true)
	}
	// Pull-mode survivors resync on their own: their fetchers observed the
	// connection reset, and on redial they truncate to their high watermark
	// before fetching from the re-resolved leader.
	//
	// With every other replica down the ISR is just the leader, whose whole
	// log commits; otherwise the watermark re-advances as survivors report.
	lpt.recomputeHW()
}

// sortedPartitions returns the broker's partitions in deterministic order.
func (b *Broker) sortedPartitions() []*Partition {
	names := make([]string, 0, len(b.topics))
	for name := range b.topics {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*Partition
	for _, name := range names {
		for _, pt := range b.topics[name].parts {
			if pt != nil {
				out = append(out, pt)
			}
		}
	}
	return out
}

func replicaListed(replicas []string, id string) bool {
	for _, r := range replicas {
		if r == id {
			return true
		}
	}
	return false
}
