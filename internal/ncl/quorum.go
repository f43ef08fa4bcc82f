package ncl

// quorumPolicy is the SWARM-style one-RTT write path: each record becomes
// ONE self-describing frame (header + payload) appended to a per-peer
// journal, posted as a single RDMA write to every peer with no ordering
// dependency between the data and a separate commit header. Acked at f+1
// of 2f+1 — half the WRs and one less serialized fabric hop per record
// than mirror's data-then-header pair, which is what buys the lower write
// tail latency.
//
// Commit rule and recovery: a record is acknowledged once f+1 peers
// completed its frame. Each peer's journal is a byte-exact prefix of the
// client's journal (frames are posted in order on each QP), so during
// recovery the longest journal among any f+1 responsive members contains
// every acknowledged frame: the ack quorum and the recovery read set
// intersect in at least one member, and that member's prefix includes the
// frame. Recovery replays the longest journal, then read-repairs every
// lagging survivor by rewriting its full journal, and republishes the
// membership under a bumped epoch so stale frames beyond the recovered
// prefix can never outrank post-recovery writes.
//
// Like ec, the journal is append-only with no in-place compaction; the
// region carries a slack budget (capacity/8 beyond the capacity itself)
// for frame headers, and Append fails with ErrRegionFull when the journal
// is exhausted. Records of >= 256 B never exhaust it before the nominal
// capacity; the application's checkpoint/rotate path resets it.

import (
	"fmt"

	"splitft/internal/simnet"
)

type quorumPolicy struct {
	capacity int64

	journalCap int64
	journal    []byte
	journalLen int64

	// caughtUp carries, between the recovery read and sync phases, the
	// survivors whose journals already match the recovered prefix.
	caughtUp map[*peerConn]bool
}

func newQuorumPolicy(capacity int64) *quorumPolicy {
	q := &quorumPolicy{
		capacity:   capacity,
		journalCap: quorumJournalCap(capacity),
	}
	q.journal = make([]byte, q.journalCap)
	return q
}

// quorumJournalCap sizes one journal region: the capacity itself plus a
// frame-header slack budget (1/8th of capacity, floor 4 KiB).
func quorumJournalCap(capacity int64) int64 {
	slack := capacity / 8
	if slack < 4096 {
		slack = 4096
	}
	return capacity + slack
}

// Append frames the record into the journal and posts one WR per live
// peer. Caller holds lg.mu.
func (q *quorumPolicy) Append(p *simnet.Proc, lg *Log, off int64, data []byte) error {
	length := int64(len(data))
	fs := frameHdrSize + length
	if q.journalLen+fs > q.journalCap {
		return fmt.Errorf("%w: quorum journal exhausted (%d of %d bytes; checkpoint and reopen)",
			ErrRegionFull, q.journalLen, q.journalCap)
	}
	pos := q.journalLen
	copy(q.journal[pos+frameHdrSize:], data)
	putFrame(q.journal[pos:pos+fs], lg.seq, uint64(lg.epoch), off, length, length)
	for _, pc := range lg.peers {
		if pc != nil && pc.active && !pc.failed {
			pc.qp.PostWrite(p, pc.rkey, int(pos), q.journal[pos:pos+fs], recCtx(pc, lg.seq, true))
		}
	}
	q.journalLen = pos + fs
	return nil
}

// Recover reads every survivor's full journal and replays the longest one
// (ties broken by membership-slot order, deterministically). Unlike ec
// there is no cut below the maximum: any single journal is self-contained,
// so the most advanced one is used whole — recovering at-worst some
// unacknowledged tail records, exactly as mirror's max-sequence rule does.
func (q *quorumPolicy) Recover(p *simnet.Proc, lg *Log, alive []*peerConn) error {
	scans := lg.scanFrameLogs(p, alive, q.journalCap, q.capacity)
	if len(scans) < lg.place.MinAlive {
		return fmt.Errorf("%w: %d of %d journals readable", ErrUnavailable, len(scans), lg.place.Slots)
	}
	best := 0
	for i := 1; i < len(scans); i++ {
		if scans[i].last > scans[best].last {
			best = i
		}
	}
	chosen := scans[best]
	q.journalLen = 0
	for _, f := range chosen.frames {
		copy(lg.buf[HeaderSize+f.off:], f.cell[:f.len])
		if end := f.off + f.len; end > lg.length {
			lg.length = end
		}
		lg.seq = f.seq
		q.journalLen = f.pos + f.size
	}
	copy(q.journal, chosen.buf[:q.journalLen])
	// Remember who already matches so Resync can skip them: a survivor with
	// the same last sequence holds the identical byte prefix.
	q.caughtUp = make(map[*peerConn]bool, len(scans))
	for _, sc := range scans {
		if sc.last == chosen.last {
			q.caughtUp[sc.pc] = true
		}
	}
	return nil
}

// Resync read-repairs one survivor with a full-journal rewrite unless its
// journal already matches. Suffix shipping would also work (prefix property),
// but the full rewrite is simple, correct for every lag shape, and off the
// hot path.
func (q *quorumPolicy) Resync(p *simnet.Proc, lg *Log, pc *peerConn) error {
	if q.caughtUp[pc] {
		return nil
	}
	return q.Repair(p, lg, pc, false)
}

func (q *quorumPolicy) Repair(p *simnet.Proc, lg *Log, pc *peerConn, lock bool) error {
	return lg.repairFrameLog(p, pc, q.journal, &q.journalLen, lock)
}

func (q *quorumPolicy) Snapshot(p *simnet.Proc, lg *Log, pc *peerConn) {
	lg.snapshotFrameLog(p, pc, q.journal[:q.journalLen])
}
