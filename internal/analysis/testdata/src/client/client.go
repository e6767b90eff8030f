// Package client is an obssafe fixture: instruments must be cached in
// struct fields at construction (the nil-safe no-op pattern), never fetched
// from the registry on a datapath. It also lends errdrop's fixture (klog) a
// callee: the client package's errors are in errdrop's set too.
package client

import "kafkadirect/internal/obs"

// Producer caches its instruments at construction.
type Producer struct {
	o       *obs.Obs
	sent    *obs.Counter
	depth   *obs.Gauge
	latency *obs.Histogram
}

// NewProducer fetches instruments as composite-literal field values:
// construction caching.
func NewProducer(o *obs.Obs) *Producer {
	return &Producer{
		o:       o,
		sent:    o.Counter("client/sent"),
		depth:   o.Gauge("client/inflight"),
		latency: o.Histogram("client/latency"),
	}
}

// enable re-fetches into escaping fields: still construction caching.
func (p *Producer) enable(o *obs.Obs) {
	p.o = o
	p.sent = o.Counter("client/sent")
}

// send fetches from the registry on the datapath instead of using the
// cached handle.
func (p *Producer) send() {
	p.o.Counter("client/sent").Inc() // want `obs\.Counter fetched outside construction caching`
	p.sent.Inc()
}

// observe fetches a histogram per call.
func (p *Producer) observe(d int64) {
	p.o.Histogram("client/latency").Observe(uint64(d)) // want `obs\.Histogram fetched outside construction caching`
}

// rebalance demonstrates a justified suppression on a cold path.
func (p *Producer) rebalance() {
	//kdlint:allow obssafe cold control-plane path executed once per rebalance
	p.o.Counter("client/rebalances").Inc()
}

// Poll mimics the consumer API: its error says the fetch failed, so a
// caller that discards it measures or forwards nothing (see the klog
// fixture).
func Poll() (int, error) { return 0, nil }
