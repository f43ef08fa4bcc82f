package ncl

// The replication policy seam. A policy is two things: a group shape — how
// many peers, how big each region is, what "acknowledged" means — that is a
// pure function of the parsed spec (PolicySpec.Place), and a strategy — what
// a record posts and how recovery and repair move the log's bytes — that
// lives behind ReplicationPolicy. Three implementations:
//
//   - mirror  (mirror.go): the paper's protocol — full copies on 2f+1
//     peers, data WR + header WR SQ-ordered, acked at f+1.
//   - ec(k,m) (ec.go): Reed-Solomon striping — each record is split into k
//     data cells plus m parity cells, one per peer; any k survivors
//     reconstruct, at (k+m)/k of the log's size instead of 2f+1 copies.
//   - quorum  (quorum.go): SWARM-style one-RTT writes — one self-describing
//     frame WR per peer, no ordering between them, acked at a majority,
//     with a read-repair pass on recovery.
//
// The policy spec travels in the ap-map entry (controller.FileEntry.Policy)
// so a recovering instance — possibly configured differently — rebuilds the
// file with the policy it was written under.

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"time"

	"splitft/internal/simnet"
)

// PolicyKind enumerates the replication strategies.
type PolicyKind int

const (
	// PolicyMirror is the paper's full-copy protocol.
	PolicyMirror PolicyKind = iota
	// PolicyEC stripes records with Reed-Solomon coding.
	PolicyEC
	// PolicyQuorum writes unordered one-RTT frames acked at a majority.
	PolicyQuorum
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyEC:
		return "ec"
	case PolicyQuorum:
		return "quorum"
	default:
		return "mirror"
	}
}

// PolicySpec is the parsed form of a replication policy string.
type PolicySpec struct {
	Kind PolicyKind
	// F is the failure budget for mirror and quorum: 2F+1 peers, F
	// simultaneous failures tolerated.
	F int
	// K and M are the data/parity counts for ec: K+M peers, M failures
	// tolerated, any K survivors reconstruct.
	K, M int
}

// ParsePolicy parses a policy spec string: "mirror" (or ""), "mirror:F",
// "ec:K,M", "quorum", "quorum:F".
func ParsePolicy(s string) (PolicySpec, error) {
	name, arg := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, arg = s[:i], s[i+1:]
	}
	switch name {
	case "", "mirror", "quorum":
		spec := PolicySpec{Kind: PolicyMirror, F: 1}
		if name == "quorum" {
			spec.Kind = PolicyQuorum
		}
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 || v > 7 {
				return PolicySpec{}, fmt.Errorf("ncl: bad %s failure budget %q", spec.Kind, arg)
			}
			spec.F = v
		}
		return spec, nil
	case "ec":
		parts := strings.Split(arg, ",")
		if len(parts) != 2 {
			return PolicySpec{}, fmt.Errorf("ncl: ec policy wants K,M, got %q", arg)
		}
		k, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		m, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err1 != nil || err2 != nil || k < 2 || m < 1 || k+m > 16 {
			return PolicySpec{}, fmt.Errorf("ncl: bad ec shape %q (want 2<=K, 1<=M, K+M<=16)", arg)
		}
		return PolicySpec{Kind: PolicyEC, K: k, M: m}, nil
	default:
		return PolicySpec{}, fmt.Errorf("ncl: unknown replication policy %q", s)
	}
}

// String renders the canonical spec string (round-trips through ParsePolicy).
func (s PolicySpec) String() string {
	switch s.Kind {
	case PolicyEC:
		return fmt.Sprintf("ec:%d,%d", s.K, s.M)
	case PolicyQuorum:
		if s.F == 1 {
			return "quorum"
		}
		return fmt.Sprintf("quorum:%d", s.F)
	default:
		if s.F == 1 {
			return "mirror"
		}
		return fmt.Sprintf("mirror:%d", s.F)
	}
}

// Slots is the peer-group size.
func (s PolicySpec) Slots() int {
	if s.Kind == PolicyEC {
		return s.K + s.M
	}
	return 2*s.F + 1
}

// Tolerates is how many simultaneous peer failures lose no acknowledged
// write.
func (s PolicySpec) Tolerates() int {
	if s.Kind == PolicyEC {
		return s.M
	}
	return s.F
}

// Placement is the group shape a policy spec derives for one log.
type Placement struct {
	// Slots is the number of peer regions.
	Slots int
	// SlotRegion is each region's size in bytes; the controller's placement
	// and the peers' free-memory accounting both work in these units, so
	// Slots x SlotRegion is what the registry actually reserves.
	SlotRegion int64
	// AckNeed is how many active peers must complete a record before it is
	// acknowledged to the application.
	AckNeed int
	// MinAlive is how many members recovery must reach to reconstruct.
	MinAlive int
	// FrameLog says what a peer region holds: an append-only log of
	// self-describing frames (ec, quorum) rather than a plain image of the
	// file (mirror). A frame log has nothing file-shaped for a raw remote
	// read to return, and every recovery must republish its ap-map entry
	// under a bumped epoch so post-recovery frames outrank any stale frames
	// beyond the recovered prefix on generation.
	FrameLog bool
}

// Place returns the group shape for a log of the given capacity.
func (s PolicySpec) Place(capacity int64) Placement {
	switch s.Kind {
	case PolicyEC:
		// All k+m slots ack (see ec.go); any k reconstruct.
		return Placement{Slots: s.Slots(), SlotRegion: ecShardCap(s.K, capacity),
			AckNeed: s.K + s.M, MinAlive: s.K, FrameLog: true}
	case PolicyQuorum:
		return Placement{Slots: s.Slots(), SlotRegion: quorumJournalCap(capacity),
			AckNeed: s.F + 1, MinAlive: s.F + 1, FrameLog: true}
	default:
		return Placement{Slots: s.Slots(), SlotRegion: HeaderSize + capacity,
			AckNeed: s.F + 1, MinAlive: s.F + 1}
	}
}

// ReplicationPolicy is the log-write/recovery strategy of one open log: what
// a record posts, how recovery reads and re-syncs, and what a replacement is
// sent. The group shape is not behind it — that is a pure function of the
// spec, PolicySpec.Place. Instances are per-log (ec and quorum hold
// client-side shard state) and every method is called from ncl-lib with the
// log's conventions: Append runs under lg.mu with the local buffer already
// updated and lg.seq already assigned; Recover runs on a freshly connected
// log before it is returned to the application, Resync behind it, once per
// survivor and for all of them at once; Repair and Snapshot are the §4.5.2
// catch-up steps, the second sending only what the first's cut left out.
type ReplicationPolicy interface {
	// Append posts the RDMA writes replicating the record just applied at
	// [off, off+len(data)) as sequence lg.seq. Called under lg.mu. An error
	// (ec/quorum frame-budget exhaustion) means nothing was posted; the
	// caller rolls the sequence number back and fails the Record.
	Append(p *simnet.Proc, lg *Log, off int64, data []byte) error
	// Recover is the read phase of application recovery: fix lg's cut
	// (length, seq) from the reachable peers and rebuild its content in buf
	// — or post its read with lg.streamFrom, to arrive behind the caller.
	// alive holds the connected members; len(alive) >= lg.place.MinAlive is
	// guaranteed. Peers that fail mid-read are marked failed (the caller
	// replaces them). Runs inside the "recover.rdmaread" span.
	Recover(p *simnet.Proc, lg *Log, alive []*peerConn) error
	// Resync is the sync phase for one survivor: catch pc up to the
	// recovered content so a subsequent failure cannot un-recover it. The
	// caller (Log.resync) runs it for every survivor at once, activates the
	// ones it succeeds on and replaces the rest. Runs inside the
	// "recover.syncpeer" span, with all the content arrived.
	Resync(p *simnet.Proc, lg *Log, pc *peerConn) error
	// Repair bulk-writes pc's slot's current replica content to pc's region
	// (a replacement peer, or a survivor) and waits for completion. With
	// lock=true — a live catch-up — the content is cut under lg.mu and the
	// cut recorded in pc.cut.
	Repair(p *simnet.Proc, lg *Log, pc *peerConn, lock bool) error
	// Snapshot posts what pc's replica content gained since its catch-up cut
	// as ordinary record WRs, so the poller advances pc.completedSeq to lg.seq
	// when they land — the §4.5.2 activation delta. Called under lg.mu.
	Snapshot(p *simnet.Proc, lg *Log, pc *peerConn)
}

// newPolicy builds the per-log policy instance for a log of the given
// capacity.
func newPolicy(spec PolicySpec, capacity int64) ReplicationPolicy {
	switch spec.Kind {
	case PolicyEC:
		return newECPolicy(spec, capacity)
	case PolicyQuorum:
		return newQuorumPolicy(capacity)
	default:
		return &mirrorPolicy{}
	}
}

// ---- Self-describing frames (ec and quorum) ----
//
// The ec and quorum policies keep each peer region as an append-only frame
// log instead of mirror's header+content image. A frame is self-describing:
//
//	[seq u64][gen u64][off u32][len u32][cell u32][sum u32][cell bytes]
//
// seq is the record's sequence number, gen the log epoch it was written
// under, (off, len) the record's location in the file, cell the byte count
// that follows (len for quorum, ceil(len/K) for ec), and sum an FNV-1a
// checksum over header and payload. Recovery scans a region from offset 0
// and accepts frames while the checksum holds, seq strictly increases and
// gen never decreases: stale bytes beyond a compaction reset (or beyond a
// recovery cut, which bumps the epoch precisely so its gen outranks them)
// fail one of the three and terminate the scan. In-place on real hardware
// the checksum also catches torn frames; in the simulation writes are
// atomic, so it only ever rejects stale bytes.
const frameHdrSize = 32

func frameSum(hdr, cell []byte) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	for _, b := range hdr {
		h ^= uint32(b)
		h *= prime
	}
	for _, b := range cell {
		h ^= uint32(b)
		h *= prime
	}
	return h
}

// putFrame writes a frame header into dst[0:frameHdrSize], checksummed over
// the cell bytes that the caller has already placed at dst[frameHdrSize:].
func putFrame(dst []byte, seq, gen uint64, off, length, cell int64) {
	binary.LittleEndian.PutUint64(dst[0:8], seq)
	binary.LittleEndian.PutUint64(dst[8:16], gen)
	binary.LittleEndian.PutUint32(dst[16:20], uint32(off))
	binary.LittleEndian.PutUint32(dst[20:24], uint32(length))
	binary.LittleEndian.PutUint32(dst[24:28], uint32(cell))
	binary.LittleEndian.PutUint32(dst[28:32], frameSum(dst[0:28], dst[frameHdrSize:frameHdrSize+cell]))
}

// frame is one parsed frame.
type frame struct {
	seq  uint64
	gen  uint64
	off  int64
	len  int64
	cell []byte // aliases the scanned buffer
	// pos/size locate the whole frame (header + cell) in the region.
	pos, size int64
}

// scanFrames parses the frame log in buf, stopping at the first frame that
// fails its checksum, repeats/regresses a sequence number, or regresses the
// epoch. maxLen bounds a frame's declared record length (the log capacity).
func scanFrames(buf []byte, maxLen int64) []frame {
	var out []frame
	var prevSeq, prevGen uint64
	pos := int64(0)
	for pos+frameHdrSize <= int64(len(buf)) {
		hdr := buf[pos : pos+frameHdrSize]
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		gen := binary.LittleEndian.Uint64(hdr[8:16])
		off := int64(binary.LittleEndian.Uint32(hdr[16:20]))
		length := int64(binary.LittleEndian.Uint32(hdr[20:24]))
		cell := int64(binary.LittleEndian.Uint32(hdr[24:28]))
		sum := binary.LittleEndian.Uint32(hdr[28:32])
		if seq == 0 || seq <= prevSeq || gen < prevGen {
			break
		}
		// length == 0 is legal: zero-length records still frame (their WR is
		// what advances the ack sequence). Zeroed-region garbage is caught by
		// the seq == 0 check above, not here.
		if length < 0 || length > maxLen || off < 0 || off+length > maxLen {
			break
		}
		if cell < 0 || pos+frameHdrSize+cell > int64(len(buf)) {
			break
		}
		payload := buf[pos+frameHdrSize : pos+frameHdrSize+cell]
		if frameSum(hdr[0:28], payload) != sum {
			break
		}
		out = append(out, frame{
			seq: seq, gen: gen, off: off, len: length, cell: payload,
			pos: pos, size: frameHdrSize + cell,
		})
		prevSeq, prevGen = seq, gen
		pos += frameHdrSize + cell
	}
	return out
}

// ---- Frame-log catch-up (ec and quorum) ----
//
// What recovery reads from a survivor and what a replacement or a lagging
// member is sent do not depend on the policy, only on the slot's client-side
// frame log: a buffer and how much of it is in use.

// frameScan is one survivor's region as read and parsed at recovery.
type frameScan struct {
	pc     *peerConn
	frames []frame
	last   uint64 // sequence number of the last valid frame, 0 if none
	buf    []byte // the region as read; frames alias it
}

// scanFrameLogs reads every survivor's whole region (regionCap bytes), all at
// once, and scans its frame log. A peer whose read fails is marked failed and
// left out; the caller decides how many scans are enough.
func (lg *Log) scanFrameLogs(p *simnet.Proc, alive []*peerConn, regionCap, capacity int64) []frameScan {
	all := make([]frameScan, len(alive))
	errs := fanOut(p, lg.lib, alive, func(fp *simnet.Proc, i int, pc *peerConn) error {
		buf := make([]byte, regionCap)
		if err := lg.readInto(fp, pc, 0, buf); err != nil {
			return err
		}
		fr := scanFrames(buf, capacity)
		var last uint64
		if len(fr) > 0 {
			last = fr[len(fr)-1].seq
		}
		all[i] = frameScan{pc: pc, frames: fr, last: last, buf: buf}
		return nil
	})
	scans := make([]frameScan, 0, len(alive))
	for i, pc := range alive {
		if errs[i] != nil {
			pc.failed = true
			continue
		}
		scans = append(scans, all[i])
	}
	return scans
}

// repairFrameLog bulk-writes the frame log buf[:*used] to pc's region and
// waits for completion, recording in pc.cut how much it sent. With lock=true
// the length is read and the WR posted under lg.mu, so the snapshot is cut
// between two appends.
func (lg *Log) repairFrameLog(p *simnet.Proc, pc *peerConn, buf []byte, used *int64, lock bool) error {
	id, done := lg.newBulkWaiter(p)
	defer delete(lg.bulks, id)
	if lock {
		lg.mu.Lock(p)
	}
	pc.cut = *used
	n := 0
	if pc.cut > 0 {
		pc.qp.PostWrite(p, pc.rkey, 0, buf[:pc.cut], bulkCtx(id))
		n++
	}
	if lock {
		lg.mu.Unlock(p)
	}
	return awaitBulk(p, done, n)
}

// snapshotFrameLog posts the frames the log gained since pc's catch-up cut as
// one ordinary record WR, so the poller advances pc.completedSeq to lg.seq
// when it lands. A frame log only grows until a recovery resets it, so the
// cut is exact; with nothing gained, the awaited catch-up already holds
// lg.seq. Caller holds lg.mu.
func (lg *Log) snapshotFrameLog(p *simnet.Proc, pc *peerConn, log []byte) {
	delta := log[pc.cut:]
	if len(delta) == 0 {
		pc.completedSeq = lg.seq
		lg.ackCond.Broadcast(p)
		return
	}
	p.Sleep(time.Duration(float64(len(delta)) / lg.lib.cfg.CatchupCopyCPU * float64(time.Second)))
	pc.qp.PostWrite(p, pc.rkey, int(pc.cut), delta, recCtx(pc, lg.seq, true))
}
