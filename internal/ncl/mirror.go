package ncl

// mirrorPolicy is the paper's replication protocol (§4.4): every peer holds
// a full copy of the region — a 16-byte header (sequence number, length)
// followed by the log content. Each record is a data write followed by a
// header write, ordered by the QP's send queue, so a peer whose header
// shows sequence s holds every write up to s. Acked at f+1 of 2f+1.
//
// This implementation is the regression anchor: it is a verbatim move of
// the pre-policy-seam code paths, so mirror traces stay deterministic per
// (profile, seed) and cost-identical to the original.

import (
	"encoding/binary"
	"fmt"
	"time"

	"splitft/internal/peer"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/wire"
)

type mirrorPolicy struct {
	// Recovery state shared between the read and sync phases: the length
	// each survivor's header advertised, and the peer whose region is read.
	hdrLens      map[*peerConn]int64
	recoveryPeer *peerConn
	// catching is the member a live catch-up was last cut for; until its
	// activation, Append lowers its cut to every offset it writes below it.
	// A log runs one live replacement at a time (its repair proc), so one
	// member is enough.
	catching *peerConn
}

// putHeader fills h (HeaderSize bytes) with the current seq/length. Callers
// pass a stack array: PostWrite copies the payload at post time, so the
// header never escapes and the record hot path stays allocation-free.
func (lg *Log) putHeader(h []byte) {
	binary.LittleEndian.PutUint64(h[0:8], lg.seq)
	binary.LittleEndian.PutUint64(h[8:16], uint64(lg.length))
}

// Append posts a data write followed by a header write to every active
// peer (§4.4). Caller holds lg.mu with lg.buf/length/seq already updated.
func (m *mirrorPolicy) Append(p *simnet.Proc, lg *Log, off int64, data []byte) error {
	seq := lg.seq
	if c := m.catching; c != nil && off < c.cut {
		c.cut = off // a circular log overwrote what the catch-up sent
	}
	var hdr [HeaderSize]byte
	lg.putHeader(hdr[:])
	for _, pc := range lg.peers {
		if pc != nil && pc.active && !pc.failed {
			pc.qp.PostWrite(p, pc.rkey, HeaderSize+int(off), data, recCtx(pc, seq, false))
			pc.qp.PostWrite(p, pc.rkey, 0, hdr[:], recCtx(pc, seq, true))
		}
	}
	return nil
}

// Recover is the read phase of §4.5.1 steps 3-4: read the header from every
// survivor at once, pick the maximum sequence number (quorum intersection
// guarantees it covers every acknowledged write) — that fixes the cut — and
// post the read of that peer's region, which arrives behind the caller.
func (m *mirrorPolicy) Recover(p *simnet.Proc, lg *Log, alive []*peerConn) error {
	seqs := make([]uint64, len(alive))
	m.hdrLens = make(map[*peerConn]int64)
	errs := fanOut(p, lg.lib, alive, func(fp *simnet.Proc, i int, pc *peerConn) error {
		hbuf := make([]byte, HeaderSize)
		if err := lg.readInto(fp, pc, 0, hbuf); err != nil {
			return err
		}
		seqs[i] = binary.LittleEndian.Uint64(hbuf[0:8])
		m.hdrLens[pc] = int64(binary.LittleEndian.Uint64(hbuf[8:16]))
		return nil
	})
	best := -1
	for i, pc := range alive { // deterministic order; first max wins
		if errs[i] != nil {
			pc.failed = true
		} else if best < 0 || seqs[i] > seqs[best] {
			best = i
		}
	}
	if len(m.hdrLens) < lg.place.MinAlive {
		return fmt.Errorf("%w: %d header responses", ErrUnavailable, len(m.hdrLens))
	}
	m.recoveryPeer = alive[best]
	lg.seq = seqs[best]
	lg.length = m.hdrLens[m.recoveryPeer]
	lg.putHeader(lg.buf[:HeaderSize])
	lg.streamFrom(p, m.recoveryPeer)
	return nil
}

// Resync is the sync phase of §4.5.1 step 5 for one survivor: catch it up to
// the recovered content. Circular (and by default all) logs get the whole
// region via staging + atomic switch; logs the application declared
// append-only get the cheaper tail shipping into their existing regions. The
// recovery peer holds the content already.
func (m *mirrorPolicy) Resync(p *simnet.Proc, lg *Log, pc *peerConn) error {
	switch {
	case pc == m.recoveryPeer:
		return nil
	case lg.appendOnly:
		return lg.catchUpTail(p, pc, m.hdrLens[pc])
	default:
		return lg.catchUpViaStaging(p, pc, lg.epoch)
	}
}

// Repair bulk-writes the whole image to pc and records in pc.cut how much
// content it sent. A live catch-up (lock) is cut under lg.mu, and pc becomes
// the catching member until Snapshot sends it what lies beyond the cut.
func (m *mirrorPolicy) Repair(p *simnet.Proc, lg *Log, pc *peerConn, lock bool) error {
	id, done := lg.newBulkWaiter(p)
	defer delete(lg.bulks, id)
	if lock {
		lg.mu.Lock(p)
		m.catching = pc
	}
	pc.cut = lg.length
	n := lg.postImage(p, pc.qp, pc.rkey, 0, id)
	if lock {
		lg.mu.Unlock(p)
	}
	return awaitBulk(p, done, n)
}

// Snapshot sends pc what changed since its catch-up cut — the content from
// the cut, lowered to the lowest offset a circular log overwrote since, to the
// current end, then the header — as ordinary record WRs, so the poller
// advances pc.completedSeq to the current sequence number when they land.
// Caller holds lg.mu. The client-side copy of the delta briefly occupies the
// writer — the Fig 12 "blip".
func (m *mirrorPolicy) Snapshot(p *simnet.Proc, lg *Log, pc *peerConn) {
	if m.catching == pc {
		m.catching = nil
	}
	if from := pc.cut; from < lg.length {
		p.Sleep(time.Duration(float64(lg.length-from) / lg.lib.cfg.CatchupCopyCPU * float64(time.Second)))
		pc.qp.PostWrite(p, pc.rkey, HeaderSize+int(from), lg.buf[HeaderSize+from:HeaderSize+lg.length],
			recCtx(pc, lg.seq, false))
	}
	var hdr [HeaderSize]byte
	lg.putHeader(hdr[:])
	pc.qp.PostWrite(p, pc.rkey, 0, hdr[:], recCtx(pc, lg.seq, true))
}

// catchUpViaStaging copies the recovered content to a fresh staging region
// on pc and atomically switches the peer's mr-map to it (§4.5.1). The
// switch also covers circular logs, where shipping a log tail would be
// incorrect (Fig 7ii).
func (lg *Log) catchUpViaStaging(p *simnet.Proc, pc *peerConn, epoch int64) error {
	l := lg.lib
	stg, err := wire.Call[peer.AllocStagingResp](p, l.sim.Net(), l.node, peer.Addr(pc.name), peer.AllocStagingReq{
		App: l.appID, File: lg.name, Size: lg.regionSize(), Epoch: epoch,
	})
	if err != nil {
		return err
	}
	if err := lg.bulkTransfer(p, pc.qp, stg.RKey, 0); err != nil {
		return err
	}
	if _, err := wire.Call[wire.Ack](p, l.sim.Net(), l.node, peer.Addr(pc.name), peer.CommitSwitchReq{
		App: l.appID, File: lg.name, StagingID: stg.StagingID, Epoch: epoch,
	}); err != nil {
		return err
	}
	pc.rkey = stg.RKey
	return nil
}

// catchUpTail ships only the missing bytes at the end of an append-only
// log into the lagging peer's EXISTING region, followed by a header write.
// Safe because in-order replication makes a lagging peer's prefix (up to
// its advertised length) identical to the recovered content; bytes beyond
// it are at worst a torn, unacknowledged record that the new header caps.
func (lg *Log) catchUpTail(p *simnet.Proc, pc *peerConn, peerLen int64) error {
	if peerLen > lg.length {
		// A peer cannot advertise more than the recovered maximum unless
		// its header is corrupt; fall back to the full copy path.
		return fmt.Errorf("ncl: peer %s advertises %d > recovered %d", pc.name, peerLen, lg.length)
	}
	return lg.bulkTransfer(p, pc.qp, pc.rkey, peerLen)
}

// bulkTransfer writes the log image from content offset from on (data then
// header) to a remote region and waits for both completions.
func (lg *Log) bulkTransfer(p *simnet.Proc, qp *rdma.QP, rkey uint64, from int64) error {
	id, done := lg.newBulkWaiter(p)
	defer delete(lg.bulks, id)
	return awaitBulk(p, done, lg.postImage(p, qp, rkey, from, id))
}

// postImage posts the log image from content offset from on under bulk id —
// the data, then the header — and returns how many WRs it posted. PostWrite
// copies payloads into staging buffers at post time, so a caller that holds
// lg.mu holds it only for the posting: the transfer proceeds unlocked and
// writes continue meanwhile.
func (lg *Log) postImage(p *simnet.Proc, qp *rdma.QP, rkey uint64, from int64, id uint64) int {
	n := 1
	if from < lg.length {
		qp.PostWrite(p, rkey, HeaderSize+int(from), lg.buf[HeaderSize+from:HeaderSize+lg.length], bulkCtx(id))
		n++
	}
	var hdr [HeaderSize]byte
	lg.putHeader(hdr[:])
	qp.PostWrite(p, rkey, 0, hdr[:], bulkCtx(id))
	return n
}
