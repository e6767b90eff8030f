package kwire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeInto feeds arbitrary bytes to the decoder of every kind — what a
// broker's ingest and a client's receive path do with whatever a peer sent —
// seeded with the golden frame of each kind and every truncation of it. A
// decode may fail but never panic. One that succeeds must be stable under
// re-encoding (a decoder that accepts more than the encoder writes, such as
// trailing bytes or a bool byte other than 0 and 1, still yields a message the
// encoder can reproduce, in no more bytes than it came in), and must own its
// memory: overwriting the input afterwards may not change any decoded field,
// which is what lets every receiver recycle a frame right after decoding it.
func FuzzDecodeInto(f *testing.F) {
	for _, frame := range goldenFrames(f) {
		for cut := 0; cut <= len(frame); cut++ {
			f.Add(frame[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _, _ = Decode(b) // the kind byte as it came: unknown kinds included
		if len(b) == 0 {
			return
		}
		for k := Kind(1); k <= KindMax; k++ {
			frame := bytes.Clone(b)
			frame[0] = byte(k)
			m := NewMessage(k)
			corr, err := DecodeInto(frame, m)
			if err != nil {
				continue
			}
			if again := Encode(corr, m); len(again) > len(frame) {
				t.Fatalf("%T: %d bytes re-encode to %d\n in  %x\n out %x", m, len(frame), len(again), frame, again)
			}
			m2 := roundTrip(t, corr, m)
			for i := range frame {
				frame[i] ^= 0xff
			}
			if !reflect.DeepEqual(m2, m) {
				t.Fatalf("%T: a decoded field changed when its frame was overwritten\n got  %#v\n want %#v", m, m, m2)
			}
		}
	})
}
