package core_test

import (
	"testing"

	"kafkadirect/internal/core"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
)

// FuzzProduceNotification throws at the RDMA produce module what a producer's
// QP can carry and no codec guards: the bytes in the file region, a Write+Send
// metadata frame (order, file id and a 32-bit length, all the peer's) and a
// WriteWithImm's immediate value, under either access mode. Whatever they say,
// no API worker may panic, every notification is acknowledged exactly once —
// a metadata frame too short to decode is no notification and gets none — and
// every pooled request comes back. The three verbs are posted back to back,
// so all of them land before the broker reacts to the first (a revoked file
// would fail the later WRITE on the producer's side and prove nothing).
func FuzzProduceNotification(f *testing.F) {
	const segment = 64 << 10
	good := batchOf(f, 1, 64, 'z')
	meta := func(order, fileID uint16, length int) []byte {
		return core.EncodeWriteSendMeta(order, fileID, length, 0)
	}
	// The first grant of a fresh broker is file 1.
	f.Add(meta(0, 1, len(good)), good, core.EncodeImm(1, 1), false)     // two commits in turn
	f.Add(meta(0, 1, len(good)), good, core.EncodeImm(1, 1), true)      // the same, through the shared word
	f.Add(meta(0, 1, segment+1), good, core.EncodeImm(0, 1), false)     // a length past the file end
	f.Add(meta(0, 1, 1<<32-1), good, core.EncodeImm(0, 1), true)        // the longest a frame can claim
	f.Add(meta(0, 1, 0), good, core.EncodeImm(0, 9), false)             // nothing, then an unknown file
	f.Add(meta(5, 1, len(good)), good, core.EncodeImm(5, 1), true)      // one reservation claimed twice
	f.Add(meta(2, 1, len(good)), good, core.EncodeImm(1, 1), true)      // both behind a hole
	f.Add(meta(0, 1, len(good))[:5], good, core.EncodeImm(0, 1), false) // a torn frame
	f.Add(core.EncodeWriteSendMeta(0, 1, len(good), 512), good[:len(good)-1], core.EncodeImm(0, 1), true)

	f.Fuzz(func(t *testing.T, meta, region []byte, imm uint32, shared bool) {
		if len(meta) > 512 || len(region) > segment { // what the receive ring and the file take
			return
		}
		mode := kwire.AccessExclusive
		if shared {
			mode = kwire.AccessShared
		}
		r := newRig(t, 1, func(o *core.Options) {
			o.Config.RDMAProduce = true
			o.Config.SegmentSize = segment
		})
		if err := r.cl.CreateTopic("t", 1, 1); err != nil {
			t.Fatal(err)
		}
		r.drive(func(p *sim.Proc) {
			rp := r.rawProducer(p, r.endpoint("client"), r.cl.Brokers()[0], mode)
			at := rp.grant.Addr + uint64(rp.grant.WritePos)
			for _, wr := range []rdma.SendWR{
				{Op: rdma.OpWrite, Local: region, RemoteAddr: at, RKey: rp.grant.RKey},
				{Op: rdma.OpSend, Local: meta},
				{Op: rdma.OpWriteImm, Local: region, RemoteAddr: at, RKey: rp.grant.RKey, Imm: imm},
			} {
				wr.Unsignaled = true
				if err := rp.qp.PostSend(wr); err != nil {
					t.Fatal(err)
				}
			}
			owed := 1
			if len(meta) >= core.WriteSendMetaSize {
				owed = 2
			}
			for ; owed > 0; owed-- {
				if _, ok := rp.acks.PopTimeout(p, r.cl.Config().ProduceOrderTimeout*2); !ok {
					t.Fatalf("%d notifications were never acknowledged", owed)
				}
			}
			rp.silent(p, r.cl.Config().FetchLongPollMax)
			r.auditPools(0)
		})
		r.env.Shutdown()
		r.cl.Release()
	})
}
