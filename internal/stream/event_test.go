package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// sweepEvents is the differential test's input and the fuzzer's seed corpus:
// every combination of the values where an integer's or a float's text
// changes shape.
func sweepEvents() []SensorEvent {
	stamps := []int64{0, 1, 40e9, math.MaxInt64, -1, math.MinInt64}
	counts := []int{0, 1, 17, 999, 1e6, -3}
	speeds := []float64{0, 61.5, 1e-7, 1e21, 1.0 / 3, 1e-6, 999999999999999868928, -61.5,
		math.Copysign(0, -1), 1e-10, 1e100, 5e-324, math.MaxFloat64, 100}
	var evs []SensorEvent
	for _, ts := range stamps {
		for i, n := range counts {
			for _, speed := range speeds {
				evs = append(evs, SensorEvent{TimestampNanos: ts, Lane: counts[len(counts)-1-i], CarCount: n, AvgSpeed: speed})
			}
		}
	}
	return evs
}

// The record's size is simulated time, so the encoder's bytes must be
// json.Marshal's, and the parser must read them as json.Unmarshal does.
func TestEventCodecMatchesEncodingJSON(t *testing.T) {
	for _, ev := range sweepEvents() {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got := appendEvent(nil, ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendEvent(%+v) = %s, json.Marshal = %s", ev, got, want)
		}
		var viaJSON SensorEvent
		if err := json.Unmarshal(got, &viaJSON); err != nil {
			t.Fatal(err)
		}
		back, err := parseEvent(got)
		if err != nil || back != viaJSON {
			t.Fatalf("parseEvent(%s) = %+v, %v; json.Unmarshal = %+v", got, back, err, viaJSON)
		}
		for n := range got {
			if ev, err := parseEvent(got[:n]); err == nil {
				t.Fatalf("parseEvent accepted the truncation %s as %+v", got[:n], ev)
			}
		}
	}
}

// The parser takes the encoder's shape and nothing strconv would take beyond
// a JSON number's characters.
func TestParseEventIsStrict(t *testing.T) {
	for _, in := range []string{
		``, `{}`, `null`,
		`{"ts":1,"lane":2,"count":3,"speed":4}x`,
		`{"ts":1,"lane":2,"count":3,"speed":4}}`,
		`{"ts":1, "lane":2,"count":3,"speed":4}`,
		`{"lane":2,"ts":1,"count":3,"speed":4}`,
		`{"ts":1.0,"lane":2,"count":3,"speed":4}`,
		`{"ts":9223372036854775808,"lane":2,"count":3,"speed":4}`,
		`{"ts":1,"lane":2,"count":3,"speed":}`,
		`{"ts":1,"lane":2,"count":3,"speed":4e}`,
		`{"ts":1,"lane":2,"count":3,"speed":1e999}`,
		`{"ts":1,"lane":2,"count":3,"speed":NaN}`,
		`{"ts":1,"lane":2,"count":3,"speed":Inf}`,
		`{"ts":1,"lane":2,"count":3,"speed":0x1p-2}`,
		`{"ts":1,"lane":2,"count":3,"speed":1_0}`,
		`{"ts":1,"lane":2,"count":3,"speed":"4"}`,
	} {
		if ev, err := parseEvent([]byte(in)); err == nil {
			t.Errorf("parseEvent(%s) = %+v, want an error", in, ev)
		}
	}
}

// FuzzParseEvent: the engine parses bytes a peer wrote. Whatever they are it
// does not panic, and what it accepts is an event the encoder can write and
// the parser reads back unchanged.
func FuzzParseEvent(f *testing.F) {
	for _, ev := range sweepEvents() {
		f.Add(appendEvent(nil, ev))
	}
	f.Add([]byte(`{"ts":-0,"lane":0,"count":0,"speed":-0.0E+0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := parseEvent(data)
		if err != nil {
			return
		}
		again, err := parseEvent(appendEvent(nil, ev))
		if err != nil || again != ev {
			t.Fatalf("%q parsed as %+v, which re-encodes to %+v, %v", data, ev, again, err)
		}
	})
}
