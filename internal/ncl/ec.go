package ncl

// ecPolicy stripes each record across k+m peers with systematic
// Reed-Solomon coding (Hydra-style resilient remote memory): the record is
// split into k data cells (the last zero-padded), m parity cells are
// computed client-side, and each slot receives one self-describing frame
// per record — header plus its cell. Any k surviving slots reconstruct
// every record, so m simultaneous peer failures lose nothing at
// (k+m)/k-of-capacity memory instead of mirror's (2f+1)x.
//
// Commit rule: a record is acknowledged only when ALL k+m slots completed
// its frame (AckNeed = k+m). This is what makes the recovery cut safe with
// only k readable regions: every acknowledged record's frame is on every
// slot, so even the k-th highest surviving last-sequence covers all acks.
// The cost is that a single slow/failed peer stalls writes until it is
// replaced — the mirror policy keeps the paper's f+1 ack rule instead.
//
// Each slot region is an append-only frame log. There is no in-place
// compaction: rewriting a region's prefix while some slots have received
// the rewrite and others have not would split the reconstruction quorum
// across two incompatible representations, and a client crash in that
// window could lose acknowledged data with only m peer failures. Instead
// the region carries a slack budget (~capacity/64 beyond the cell share)
// for frame headers, and Append fails with ErrRegionFull when the budget
// is exhausted — the application's checkpoint/rotate path (Release + Open)
// resets it. Records of >= 2 KiB never exhaust the budget before the
// nominal capacity; logs of smaller records or heavy in-place overwrite
// churn should use mirror.

import (
	"fmt"
	"sort"
	"time"

	"splitft/internal/simnet"
)

type ecPolicy struct {
	spec     PolicySpec
	rs       *rsCode
	capacity int64
	shardCap int64

	// shards holds the client-side copy of every slot's frame log; posting,
	// repair and snapshot all read from it, so the append path allocates
	// nothing.
	shards   [][]byte
	shardLen int64
	cells    [][]byte // reusable per-frame cell views into shards
}

func newECPolicy(spec PolicySpec, capacity int64) *ecPolicy {
	e := &ecPolicy{
		spec:     spec,
		rs:       newRS(spec.K, spec.M),
		capacity: capacity,
		shardCap: ecShardCap(spec.K, capacity),
		cells:    make([][]byte, spec.K+spec.M),
	}
	e.shards = make([][]byte, spec.K+spec.M)
	for i := range e.shards {
		e.shards[i] = make([]byte, e.shardCap)
	}
	return e
}

// ecShardCap sizes one slot region: the slot's 1/k share of the capacity
// plus a frame-header slack budget (1/64th of capacity, floor 512 B). For
// ec(4,2) the total comes to ~1.59x the log capacity.
func ecShardCap(k int, capacity int64) int64 {
	cell := (capacity + int64(k) - 1) / int64(k)
	slack := capacity / 64
	if slack < 512 {
		slack = 512
	}
	return cell + slack
}

// Append encodes the record into one frame per slot and posts a single WR
// per live slot. Caller holds lg.mu.
func (e *ecPolicy) Append(p *simnet.Proc, lg *Log, off int64, data []byte) error {
	length := int64(len(data))
	k := int64(e.spec.K)
	cell := (length + k - 1) / k
	fs := frameHdrSize + cell
	if e.shardLen+fs > e.shardCap {
		return fmt.Errorf("%w: ec frame budget exhausted (%d of %d shard bytes; checkpoint and reopen)",
			ErrRegionFull, e.shardLen, e.shardCap)
	}
	pos := e.shardLen
	// Data cells: slice the record across the k data slots, zero-padding
	// the tail of the last occupied cell and any wholly-empty cells.
	for i := 0; i < e.spec.K; i++ {
		dst := e.shards[i][pos+frameHdrSize : pos+frameHdrSize+cell]
		lo, hi := int64(i)*cell, int64(i+1)*cell
		if lo > length {
			lo = length
		}
		if hi > length {
			hi = length
		}
		n := copy(dst, data[lo:hi])
		for x := n; x < len(dst); x++ {
			dst[x] = 0
		}
	}
	for s := range e.cells {
		e.cells[s] = e.shards[s][pos+frameHdrSize : pos+frameHdrSize+cell]
	}
	e.rs.encode(e.cells)
	seq, gen := lg.seq, uint64(lg.epoch)
	for s := range e.shards {
		putFrame(e.shards[s][pos:pos+fs], seq, gen, off, length, cell)
		if s < len(lg.peers) {
			if pc := lg.peers[s]; pc != nil && pc.active && !pc.failed {
				pc.qp.PostWrite(p, pc.rkey, int(pos), e.shards[s][pos:pos+fs], recCtx(pc, seq, true))
			}
		}
	}
	e.shardLen = pos + fs
	// Client-side encode cost: one pass over the record at the modeled
	// GF(2^8) kernel bandwidth.
	if bw := lg.lib.cfg.EncodeBandwidth; bw > 0 && length > 0 {
		p.Sleep(time.Duration(float64(length) / bw * float64(time.Second)))
	}
	return nil
}

// Recover reads every survivor's region, scans its frame log, and
// RS-decodes the stream cut at the k-th highest surviving sequence number.
// Because acks require all k+m slots, every surviving slot's last sequence
// is >= the highest acknowledged one, so any cut at or above the k-th
// highest covers all acks; cutting there (rather than the maximum)
// guarantees k cells per frame. Slots are pure append logs, so every scan
// is a prefix of the same global frame stream and frames at equal index
// agree on metadata.
func (e *ecPolicy) Recover(p *simnet.Proc, lg *Log, alive []*peerConn) error {
	scans := lg.scanFrameLogs(p, alive, e.shardCap, e.capacity)
	if len(scans) < e.spec.K {
		return fmt.Errorf("%w: %d of %d fragments readable (need %d)",
			ErrUnavailable, len(scans), e.spec.Slots(), e.spec.K)
	}
	// Cut at the k-th highest last-sequence.
	lasts := make([]uint64, len(scans))
	for i, sc := range scans {
		lasts[i] = sc.last
	}
	sort.Slice(lasts, func(i, j int) bool { return lasts[i] > lasts[j] })
	cut := lasts[e.spec.K-1]

	// Reference frame list: any scan reaching the cut, truncated to it.
	var ref []frame
	for _, sc := range scans {
		if sc.last >= cut {
			ref = sc.frames
			break
		}
	}
	n := 0
	for n < len(ref) && ref[n].seq <= cut {
		n++
	}
	ref = ref[:n]

	// Decode frame by frame, applying records in order and rebuilding the
	// client-side shard logs (data cells from the stream, parity
	// re-encoded — identical to what survivors hold, by determinism of the
	// code).
	e.shardLen = 0
	record := make([]byte, 0, 64<<10)
	for fi, rf := range ref {
		cell := int64(len(rf.cell))
		pos := rf.pos
		present := make([]bool, e.spec.Slots())
		for s := range e.cells {
			e.cells[s] = e.shards[s][pos+frameHdrSize : pos+frameHdrSize+cell]
		}
		for _, sc := range scans {
			if fi >= len(sc.frames) {
				continue
			}
			f := sc.frames[fi]
			if f.seq != rf.seq || int64(len(f.cell)) != cell || f.pos != pos {
				return fmt.Errorf("ncl: ec fragment %s diverges at seq %d", sc.pc.name, rf.seq)
			}
			slot := sc.pc.slot
			copy(e.cells[slot], f.cell)
			present[slot] = true
		}
		if err := e.rs.reconstruct(e.cells, present); err != nil {
			return fmt.Errorf("ncl: ec decode at seq %d: %w", rf.seq, err)
		}
		// Reassemble and apply the record.
		record = record[:0]
		for i := 0; i < e.spec.K && int64(len(record)) < rf.len; i++ {
			take := rf.len - int64(len(record))
			if take > cell {
				take = cell
			}
			record = append(record, e.cells[i][:take]...)
		}
		copy(lg.buf[HeaderSize+rf.off:], record)
		if end := rf.off + rf.len; end > lg.length {
			lg.length = end
		}
		lg.seq = rf.seq
		// Stamp the frame headers over the rebuilt cells, preserving the
		// original generation.
		for s := range e.shards {
			putFrame(e.shards[s][pos:pos+rf.size], rf.seq, rf.gen, rf.off, rf.len, cell)
		}
		e.shardLen = pos + rf.size
	}
	return nil
}

// Resync rewrites one survivor's frame log up to the cut. A slot that already
// reached the cut holds an identical prefix (per-slot streams are prefixes of
// the global stream), so the rewrite changes nothing there; a slot that was
// ahead of the cut keeps stale frames beyond it, which the next scan rejects
// because recovery always republishes under a bumped epoch and post-recovery
// frames outrank them on generation.
func (e *ecPolicy) Resync(p *simnet.Proc, lg *Log, pc *peerConn) error {
	return e.Repair(p, lg, pc, false)
}

func (e *ecPolicy) Repair(p *simnet.Proc, lg *Log, pc *peerConn, lock bool) error {
	return lg.repairFrameLog(p, pc, e.shards[pc.slot], &e.shardLen, lock)
}

func (e *ecPolicy) Snapshot(p *simnet.Proc, lg *Log, pc *peerConn) {
	lg.snapshotFrameLog(p, pc, e.shards[pc.slot][:e.shardLen])
}
