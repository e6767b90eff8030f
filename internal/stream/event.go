package stream

import (
	"errors"
	"math"
	"strconv"
)

// The sensor's JSON has one shape, so it is written and read without
// reflection: §5.4 excludes the engine's processing from the delay it
// reports, and nothing but the record's size — simulated time — depends on
// how the bytes were made.

// eventKeys are the keys of a SensorEvent in field order, each with the
// punctuation before its value.
var eventKeys = [4]string{`{"ts":`, `,"lane":`, `,"count":`, `,"speed":`}

var errEvent = errors.New("stream: not a sensor event")

// appendEvent appends ev to dst exactly as json.Marshal encodes it.
func appendEvent(dst []byte, ev SensorEvent) []byte {
	dst = strconv.AppendInt(append(dst, eventKeys[0]...), ev.TimestampNanos, 10)
	dst = strconv.AppendInt(append(dst, eventKeys[1]...), int64(ev.Lane), 10)
	dst = strconv.AppendInt(append(dst, eventKeys[2]...), int64(ev.CarCount), 10)
	dst = appendFloat(append(dst, eventKeys[3]...), ev.AvgSpeed)
	return append(dst, '}')
}

// appendFloat is encoding/json's float64 encoding: the shortest digits that
// round-trip, exponent form below 1e-6 and from 1e21 as ES6 has it, a
// two-digit exponent's leading zero dropped. A value that is not finite has
// no JSON and panics, as the Marshal error did.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic("stream: " + strconv.FormatFloat(f, 'g', -1, 64) + " has no JSON encoding")
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// parseEvent reads what appendEvent writes and no other shape: the four keys
// in order, no white space, each followed by a run of number characters that
// strconv judges (the run keeps out what strconv takes and JSON has not: Inf,
// NaN, 0x1p-2, 1_0). The engine parses bytes a peer wrote, so anything else
// is an error, never a panic.
func parseEvent(data []byte) (SensorEvent, error) {
	var num [len(eventKeys)][]byte
	for i, key := range eventKeys {
		if len(data) < len(key) || string(data[:len(key)]) != key {
			return SensorEvent{}, errEvent
		}
		n := len(key)
		for n < len(data) && numberByte(data[n]) {
			n++
		}
		num[i], data = data[len(key):n], data[n:]
	}
	ts, err0 := strconv.ParseInt(string(num[0]), 10, 64)
	lane, err1 := strconv.ParseInt(string(num[1]), 10, strconv.IntSize)
	count, err2 := strconv.ParseInt(string(num[2]), 10, strconv.IntSize)
	speed, err3 := strconv.ParseFloat(string(num[3]), 64)
	if string(data) != "}" || err0 != nil || err1 != nil || err2 != nil || err3 != nil {
		return SensorEvent{}, errEvent
	}
	return SensorEvent{TimestampNanos: ts, Lane: int(lane), CarCount: int(count), AvgSpeed: speed}, nil
}

func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}
