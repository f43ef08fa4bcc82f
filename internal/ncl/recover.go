package ncl

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"splitft/internal/controller"
	"splitft/internal/peer"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// This file implements application recovery (§4.5.1) as a stream with one
// barrier (DESIGN.md §16). After a crash the application (possibly on a
// different machine) reconstructs each ncl file's most up-to-date content
// from the log peers recorded in the ap-map:
//
//  1. Look the ap-map entry up ("get peer"): in the lib's directory, which
//     the session's one proposal listed and fenced, so a listed file costs
//     no controller round trip (Lib.lookup). The entry carries the
//     replication policy the file was written under, so a recovering
//     instance — even one configured with a different default — rebuilds
//     the file correctly.
//  2. Contact every peer at once; a peer that crashed since the allocation
//     has lost its mr-map and rejects the lookup ("connect").
//  3. Read phase ("rdma read"): the policy fixes the cut — the log's length
//     and sequence number. Mirror reads the headers of >= f+1 peers and posts
//     the read of the maximum's region in segments; ec reads and RS-decodes
//     >= k fragment logs; quorum replays the longest of >= f+1 journals.
//  4. Sync phase ("sync peer"): every responsive survivor is caught up to the
//     cut, all of them at once, then unresponsive peers are replaced entirely
//     and the membership republished under an incremented epoch.
//
// Recover returns once the cut is fixed, at the end of (3)'s foreground half.
// From there one background proc per log drains the segments into the arrival
// watermark and runs (4). The paper returns only after (4), because returning
// earlier could externalize state that a subsequent failure un-recovers; here
// that rule is a barrier instead of a serial step: recovered bytes may be
// read as soon as they arrive — they are final, the cut does not move — but
// they are guaranteed to survive f further failures only once Sync or any
// write has returned. Every call that changes or vouches for the log (Record,
// Release, Sync, RemoteReadAt) first waits for the background phase and
// returns its error.

// Recovery time breaks down as Fig 11(b) does via trace spans: Recover emits
// an "ncl"/"recover" span with child spans "recover.getpeer" (the ap-map
// lookup; 0 for a file the session listed), "recover.connect" (peer lookups + QP connects),
// "recover.rdmaread" (the policy's read phase, to the arrival of the last
// segment) and "recover.syncpeer" (the policy's sync phase + replacements).
// The parent ends when the background phase does. Attach a trace.Collector to
// the Sim to observe them.

// recoverySegment is the size of the READ work requests the recovered region
// is fetched in: the unit in which content becomes readable.
const recoverySegment = 1 << 20

// recovery is the streamed half of a recovered log. A Log carries one from
// Recover until its background phase has succeeded; a log that was opened, or
// whose recovery is complete, has none.
type recovery struct {
	mu   simnet.Mutex
	cond *simnet.Cond
	// arrived is the watermark: content bytes [0, arrived) are in the local
	// buffer and final.
	arrived int64
	// stream delivers the completions of the segment READs the read phase
	// posted under bulk id streamID, in order; nil when it left none in
	// flight.
	stream   *simnet.Chan[error]
	streamID uint64
	// done: the background phase has ended, with err. A failed recovery has
	// torn the log down; err is what every later call on it returns.
	done bool
	err  error
}

func newRecovery() *recovery {
	r := &recovery{}
	r.cond = simnet.NewCond(&r.mu)
	return r
}

// await blocks until content bytes [0, upto) have arrived or the background
// phase has ended, and returns the latter's error.
func (r *recovery) await(p *simnet.Proc, upto int64) error {
	r.mu.Lock(p)
	for !r.done && r.arrived < upto {
		r.cond.Wait(p)
	}
	r.mu.Unlock(p)
	return r.err
}

// Sync is the durability barrier of a recovered log: it returns once the
// background phase of its recovery has ended — every survivor caught up, the
// membership whole and published — or with the error that phase failed with.
// What was read from the log before is as redundant as before the crash only
// from here on. On any other log it returns at once.
func (lg *Log) Sync(p *simnet.Proc) error {
	if r := lg.rec; r != nil {
		return r.await(p, math.MaxInt64)
	}
	return nil
}

// Recover reopens the named ncl file. A log this instance still holds (it
// was opened or recovered here and not released) is returned as it is;
// otherwise the file is rebuilt from its log peers and returned as soon as
// its length and sequence number are fixed: ReadAt blocks until the bytes it
// was asked for have arrived, and Record, Release and Sync wait for the
// background phase that restores the log's redundancy. A name the ap-map does
// not hold is ErrNotFound, and so is one whose members answer with a
// tombstone (DESIGN.md §14): its release was cut short after a recycle, and
// the recovery finishes it — deletes the entry, frees what is left — instead.
// Neither lookup was a recovery: its spans are relabelled "lookup", so every
// "recover" span in a trace is a file that was rebuilt.
func (l *Lib) Recover(p *simnet.Proc, name string) (*Log, error) {
	if lg, ok := l.logs[name]; ok {
		return lg, nil
	}
	rsp := p.StartSpan("ncl", "recover", trace.Str("file", name))

	// (1) ap-map lookup.
	gp := p.StartSpan("ncl", "recover.getpeer")
	entry, ver, err := l.lookup(p, name)
	p.EndSpan(gp)
	if err != nil {
		if rsp != nil {
			rsp.Op, gp.Op = "lookup", "lookup.getpeer"
		}
		p.EndSpan(rsp)
		return nil, err
	}

	// The entry's policy is authoritative — not this instance's config.
	spec, err := ParsePolicy(entry.Policy)
	if err != nil {
		p.EndSpan(rsp)
		return nil, fmt.Errorf("ncl: recover %s: %w", name, err)
	}
	lg := l.newLog(name, spec, entry.Capacity, entry.AppendOnly, entry.Epoch, ver)
	lg.rec = newRecovery()
	// The poller runs from here so completion routing works during recovery.
	p.GoOn(l.node, "ncl-poller:"+name, lg.pollLoop)

	// (2) Contact peers, all at once: mr-map lookup + QP connect. Membership
	// slots are positional (for ec, slot i holds fragment i), so lg.peers keeps
	// the entry's order with nil holes for unreachable members, and the conns
	// are registered in that order, not in the order the replies came.
	sp := p.StartSpan("ncl", "recover.connect")
	lg.peers = make([]*peerConn, len(entry.Peers))
	errs := fanOut(p, l, entry.Peers, func(fp *simnet.Proc, i int, pname string) error {
		look, err := wire.CallTimeout[peer.LookupResp](fp, l.sim.Net(), l.node, peer.Addr(pname),
			peer.LookupReq{App: l.appID, File: name}, 20*time.Millisecond)
		if err != nil {
			return err
		}
		qp, err := l.nic.Connect(fp, pname, lg.cq)
		if err != nil {
			return err
		}
		lg.peers[i] = &peerConn{name: pname, qp: qp, rkey: look.RKey, slot: i}
		return nil
	})
	var alive []*peerConn
	for _, pc := range lg.peers {
		if pc != nil {
			lg.registerConn(pc)
			alive = append(alive, pc)
		}
	}
	p.EndSpan(sp)

	// A member that answers with a tombstone recycled its region for the
	// application's next file: the file was released and only its ap-map
	// delete is missing. Finish the release; there is nothing to recover.
	if slices.ContainsFunc(errs, func(err error) bool { return errors.Is(err, peer.ErrReleased) }) {
		lg.teardown(p)
		if err = l.release(p, name, entry.Peers); err == nil {
			err = fmt.Errorf("%w: %s (released, its delete finished now)", ErrNotFound, name)
		}
		if rsp != nil {
			rsp.Op, gp.Op, sp.Op = "lookup", "lookup.getpeer", "lookup.connect"
		}
		p.EndSpan(rsp)
		return nil, err
	}

	// (3) Read phase: the policy fixes length and seq from the reachable
	// members, and leaves the content in the local buffer or on its way. Too
	// few of them is the end, unless the file is known empty: then there is
	// nothing to read, and the sync phase fills every slot without a member.
	var rd *trace.Span
	switch {
	case len(alive) >= lg.place.MinAlive:
		rd = p.StartSpan("ncl", "recover.rdmaread")
		err = lg.policy.Recover(p, lg, alive)
	case !lg.neverSetUp(p, entry, errs) || !lg.heldEmpty(p, alive):
		err = fmt.Errorf("%w: %d of %d peers reachable (need %d)",
			ErrUnavailable, len(alive), len(entry.Peers), lg.place.MinAlive)
	}
	if err != nil {
		p.EndSpan(rd)
		p.EndSpan(rsp)
		lg.teardown(p)
		return nil, err
	}
	if lg.rec.stream == nil {
		lg.rec.arrived = lg.length
	}
	l.logs[name] = lg

	// The rest runs behind the application. The two open spans cross into the
	// background proc, which inherits them and ends them; this proc's span
	// stack drops them here.
	if rsp != nil && rd != nil {
		rsp.Async, rd.Async = true, true
	}
	p.GoOn(l.node, "ncl-recover:"+name, func(bp *simnet.Proc) { lg.finishRecovery(bp, rsp, rd, alive, entry.Peers) })
	if rsp != nil {
		p.AdoptSpan(rsp.Prev())
	}
	return lg, nil
}

// neverSetUp reports whether a member of an entry created beside its set-ups
// provably never got its set-up: asked for the file it answered ErrNotFound
// (errs holds the answers, by slot), and it still holds the region of the
// released file the set-up was to recycle. The open that created the entry
// then never returned — it would have replaced that member and set the entry
// to the next epoch first — so the file holds no acknowledged byte.
func (lg *Log) neverSetUp(p *simnet.Proc, entry controller.FileEntry, errs []error) bool {
	if entry.Recycled == "" {
		return false
	}
	l := lg.lib
	var missing []string
	for i, err := range errs {
		if errors.Is(err, peer.ErrNotFound) {
			missing = append(missing, entry.Peers[i])
		}
	}
	looks := fanOut(p, l, missing, func(fp *simnet.Proc, _ int, pname string) error {
		_, err := wire.CallTimeout[peer.LookupResp](fp, l.sim.Net(), l.node, peer.Addr(pname),
			peer.LookupReq{App: l.appID, File: entry.Recycled}, 20*time.Millisecond)
		return err
	})
	return slices.Contains(looks, nil)
}

// heldEmpty reports whether every member in alive holds the file empty: the
// first 8 bytes of its region, mirror's header sequence number and a frame
// log's first frame's, read zero. A member whose read fails holds nothing
// readable and is marked failed, for the sync phase to replace.
func (lg *Log) heldEmpty(p *simnet.Proc, alive []*peerConn) bool {
	seqs := make([][8]byte, len(alive))
	errs := fanOut(p, lg.lib, alive, func(fp *simnet.Proc, i int, pc *peerConn) error {
		return lg.readInto(fp, pc, 0, seqs[i][:])
	})
	for i, pc := range alive {
		if errs[i] != nil {
			pc.failed = true
		} else if seqs[i] != [8]byte{} {
			return false
		}
	}
	return true
}

// streamFrom posts the read of the recovered content [0, lg.length) from pc's
// region as back-to-back READ work requests of recoverySegment bytes; the
// background phase drains their completions into the arrival watermark.
func (lg *Log) streamFrom(p *simnet.Proc, pc *peerConn) {
	r := lg.rec
	r.streamID, r.stream = lg.newBulkWaiter(p)
	for off := int64(0); off < lg.length; off += recoverySegment {
		end := min(off+recoverySegment, lg.length)
		pc.qp.PostRead(p, pc.rkey, int(HeaderSize+off), lg.buf[HeaderSize+off:HeaderSize+end], bulkCtx(r.streamID))
	}
}

// finishRecovery is the background phase, one proc per recovered log: drain
// the segments, run the sync phase, and open the barrier. If it fails the log
// is torn down and forgotten, so that a retry starts clean; the error is what
// every waiting and later call on the log returns.
func (lg *Log) finishRecovery(p *simnet.Proc, rsp, rd *trace.Span, alive []*peerConn, oldPeers []string) {
	r := lg.rec
	err := lg.drain(p)
	p.EndSpan(rd)
	if err == nil {
		sp := p.StartSpan("ncl", "recover.syncpeer")
		err = lg.resync(p, alive, oldPeers)
		p.EndSpan(sp)
	}
	if err != nil {
		r.err = fmt.Errorf("ncl: recovery of %s: %w", lg.name, err)
		lg.teardown(p)
	} else {
		lg.rec = nil
		lg.lib.repairCh.Send(p, "") // what failed since the sync phase
	}
	r.done = true
	r.cond.Broadcast(p)
	p.EndSpan(rsp)
}

// drain waits for the segment READs in post order, advancing the watermark
// and waking readers as each lands.
func (lg *Log) drain(p *simnet.Proc) error {
	r := lg.rec
	if r.stream == nil {
		return nil
	}
	defer delete(lg.bulks, r.streamID)
	for r.arrived < lg.length {
		if err := awaitBulk(p, r.stream, 1); err != nil {
			return fmt.Errorf("recovery read: %w", err)
		}
		r.arrived = min(r.arrived+recoverySegment, lg.length)
		r.cond.Broadcast(p)
	}
	return nil
}

// errReadPhase marks a survivor the read phase already gave up on.
var errReadPhase = errors.New("ncl: peer failed in the read phase")

// resync is the sync phase: catch every survivor up to the recovered content
// at once — the policy supplies the catch-up of one — so that a subsequent
// failure cannot un-recover it, then replace the members that are gone.
// Survivors end active with completedSeq = lg.seq; one that fails here is
// treated as freshly failed and replaced. Frame-log placements always
// republish under a bumped epoch even with a full house — post-recovery
// frames must outrank any stale frames beyond the recovered prefix on
// generation.
func (lg *Log) resync(p *simnet.Proc, alive []*peerConn, oldPeers []string) error {
	errs := fanOut(p, lg.lib, alive, func(fp *simnet.Proc, _ int, pc *peerConn) error {
		if pc.failed {
			return errReadPhase
		}
		return lg.policy.Resync(fp, lg, pc)
	})
	for i, pc := range alive {
		if errs[i] != nil {
			pc.failed = true
			continue
		}
		pc.completedSeq = lg.seq
		pc.active = true
	}
	needReplace := lg.place.FrameLog
	for _, pc := range lg.peers {
		if pc == nil || pc.failed {
			needReplace = true
		}
	}
	if !needReplace {
		return nil
	}
	return lg.replaceAtRecovery(p, oldPeers)
}

// fanOut runs fn for every member of ms at once, one proc each on the
// application node, and returns their results in ms order once all have
// ended: the one way the library talks to several peers in parallel — the
// set-up wave of an allocation, recovery's lookups, header and frame-log
// reads and catch-ups, a release. The members are whatever names the peers at
// that point: registry entries, ap-map names, connections.
func fanOut[M any](p *simnet.Proc, l *Lib, ms []M, fn func(fp *simnet.Proc, i int, m M) error) []error {
	errs, wg := goEach(p, l, ms, fn)
	wg.Wait(p)
	return errs
}

// goEach is fanOut's first half: it starts the procs and returns where their
// results land and the group that is done once all have ended, so the caller
// can start more work beside them before it waits.
func goEach[M any](p *simnet.Proc, l *Lib, ms []M, fn func(fp *simnet.Proc, i int, m M) error) ([]error, *simnet.WaitGroup) {
	errs := make([]error, len(ms))
	wg := &simnet.WaitGroup{}
	wg.Add(len(ms))
	for i, m := range ms {
		p.GoOn(l.node, "ncl-fanout", func(fp *simnet.Proc) {
			defer wg.Done(fp)
			errs[i] = fn(fp, i, m)
		})
	}
	return errs, wg
}

// readInto issues a 1-sided RDMA read from pc's region into buf and waits.
func (lg *Log) readInto(p *simnet.Proc, pc *peerConn, off int, buf []byte) error {
	id, done := lg.newBulkWaiter(p)
	defer delete(lg.bulks, id)
	pc.qp.PostRead(p, pc.rkey, off, buf, bulkCtx(id))
	return awaitBulk(p, done, 1)
}

// replaceAtRecovery fills the missing membership slots with fresh,
// caught-up peers — all of them at once — and publishes the membership under
// an incremented epoch. Slots are preserved (ec fragment i must land in slot
// i); with zero replacements this is a pure epoch bump (the ec/quorum
// generation fence).
func (lg *Log) replaceAtRecovery(p *simnet.Proc, oldPeers []string) error {
	newEpoch := lg.epoch + 1
	if slots := lg.vacant(p); len(slots) > 0 {
		pcs, err := lg.fillSlots(p, slots, oldPeers, newEpoch, false)
		if err != nil {
			return fmt.Errorf("ncl: recovery replacement: %w", err)
		}
		lg.activate(p, false, pcs...)
	}
	ver, err := lg.publish(p, lg.fileEntry(newEpoch))
	if err != nil {
		return fmt.Errorf("ncl: recovery ap-map update: %w", err)
	}
	lg.apVersion, lg.epoch = ver, newEpoch
	return nil
}
