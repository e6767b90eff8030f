package kwire_test

import (
	"bytes"
	"reflect"
	"testing"

	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/kwire"
)

// The steady-state datapath depends on the codec being allocation-free once
// its scratch state is warm: AppendEncode writes into a caller buffer, and
// DecodeInto refills a reused message struct (string fields are only
// re-allocated when their value actually changes, byte fields reuse capacity).

func produceReq() *kwire.ProduceReq {
	return &kwire.ProduceReq{
		Topic:     "events",
		Partition: 3,
		Acks:      -1,
		Batch:     bytes.Repeat([]byte{0xab}, 512),
	}
}

// TestEncodeDecodeRoundTripAllocFree holds the four datapath kinds — the ones
// a broker and a client exchange per record — to 0 allocs/op through the whole
// codec: encode into a warm scratch, peek the kind as the broker's dispatch
// does, decode into a reused struct. Every helper under them (the codec's
// integers, str and bytes, in both directions) runs inside the loop.
func TestEncodeDecodeRoundTripAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, dst kwire.Message
	}{
		{"ProduceReq", produceReq(), new(kwire.ProduceReq)},
		{"ProduceResp", &kwire.ProduceResp{Err: kwire.ErrNone, BaseOffset: 1 << 40}, new(kwire.ProduceResp)},
		{"FetchReq", &kwire.FetchReq{Topic: "events", Partition: 3, Offset: 99, MaxBytes: 1 << 20, MaxWaitMicros: 500, ReplicaID: -1}, new(kwire.FetchReq)},
		{"FetchResp", &kwire.FetchResp{HighWatermark: 100, LogEndOffset: 120, Data: bytes.Repeat([]byte{0x5a}, 4096)}, new(kwire.FetchResp)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var enc kwire.Scratch
			roundTrip := func() {
				frame := enc.Encode(42, tc.src)
				if k, ok := kwire.PeekKind(frame); !ok || k != tc.src.Kind() {
					t.Fatalf("PeekKind = %v, %v; want %v", k, ok, tc.src.Kind())
				}
				corr, err := kwire.DecodeInto(frame, tc.dst)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if corr != 42 {
					t.Fatalf("corr = %d, want 42", corr)
				}
			}
			roundTrip() // warm the scratch buffer and dst's field capacities

			if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
				t.Fatalf("encode/peek/decode round trip allocates %.1f times per op, want 0", allocs)
			}
			if !reflect.DeepEqual(tc.dst, tc.src) {
				t.Fatalf("round trip corrupted message: got %+v, want %+v", tc.dst, tc.src)
			}
		})
	}
}

func TestFetchRespDecodeIntoAllocFree(t *testing.T) {
	var enc kwire.Scratch
	resp := &kwire.FetchResp{
		Err:           kwire.ErrNone,
		HighWatermark: 100,
		LogEndOffset:  120,
		Data:          bytes.Repeat([]byte{0x5a}, 4096),
	}
	var dst kwire.FetchResp
	roundTrip := func() {
		frame := enc.Encode(7, resp)
		if _, err := kwire.DecodeInto(frame, &dst); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("fetch response round trip allocates %.1f times per op, want 0", allocs)
	}
}

// A broker's pooled request sees whatever topic the next frame names; with
// two topics in turn every decode changes the field. The codec's recent
// strings make that free too: each run decodes the other topic's frame.
func TestAlternatingTopicsDecodeAllocFree(t *testing.T) {
	var frames [2][]byte
	for i, topic := range []string{"events", "metrics"} {
		frames[i] = kwire.Encode(1, &kwire.FetchReq{Topic: topic, Partition: 3, Offset: 99, ReplicaID: -1})
	}
	var dst kwire.FetchReq
	turn := 0
	decodeNext := func() {
		turn++
		if _, err := kwire.DecodeInto(frames[turn%2], &dst); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	decodeNext()
	decodeNext() // both topics are now among the codec's recent strings
	if allocs := testing.AllocsPerRun(100, decodeNext); allocs != 0 {
		t.Fatalf("decoding two alternating topics into one struct allocates %.1f times per op, want 0", allocs)
	}
	if want := []string{"events", "metrics"}[turn%2]; dst.Topic != want {
		t.Fatalf("Topic = %q after the last decode, want %q", dst.Topic, want)
	}
}

// TestDecodedMessageDoesNotAliasPooledBuffer pins the invariant the broker
// and clients rely on when they recycle wire buffers right after decoding:
// no decoded field may alias the frame it was decoded from.
func TestDecodedMessageDoesNotAliasPooledBuffer(t *testing.T) {
	pool := new(bufpool.List)
	req := produceReq()

	buf := pool.Get(1024)
	frame := kwire.AppendEncode(buf[:0], 1, req)

	var dst kwire.ProduceReq
	if _, err := kwire.DecodeInto(frame, &dst); err != nil {
		t.Fatalf("decode: %v", err)
	}

	// Recycle the frame and scribble over the recycled memory, as the next
	// sender on the same fabric would.
	pool.Put(frame)
	next := pool.Get(1024)
	for i := range next {
		next[i] = 0xff
	}

	if dst.Topic != req.Topic {
		t.Fatalf("Topic aliased the recycled buffer: %q", dst.Topic)
	}
	if !bytes.Equal(dst.Batch, req.Batch) {
		t.Fatalf("Batch aliased the recycled buffer")
	}
}

func BenchmarkAppendEncodeProduce(b *testing.B) {
	var enc kwire.Scratch
	req := produceReq()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Encode(uint32(i), req)
	}
}

func BenchmarkDecodeIntoProduce(b *testing.B) {
	var enc kwire.Scratch
	req := produceReq()
	frame := enc.Encode(9, req)
	var dst kwire.ProduceReq
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kwire.DecodeInto(frame, &dst); err != nil {
			b.Fatal(err)
		}
	}
}
