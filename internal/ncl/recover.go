package ncl

import (
	"fmt"
	"time"

	"splitft/internal/peer"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// This file implements application recovery (§4.5.1): after a crash the
// application (possibly on a different machine) reconstructs each ncl
// file's most up-to-date content from the log peers recorded in the ap-map:
//
//  1. Fetch the ap-map entry from the controller ("get peer"). The entry
//     carries the replication policy the file was written under, so a
//     recovering instance — even one configured with a different default —
//     rebuilds the file correctly.
//  2. Contact each peer; a peer that crashed since the allocation has lost
//     its mr-map and rejects the lookup ("connect").
//  3. Read phase ("rdma read"): the policy reconstructs the log content.
//     Mirror reads headers from >= f+1 peers and prefetches the maximum's
//     region; ec reads and RS-decodes >= k fragment logs; quorum replays
//     the longest of >= f+1 journals.
//  4. Sync phase ("sync peer"): the policy catches every responsive
//     survivor up to the recovered content, then unresponsive peers are
//     replaced entirely and the membership republished under an
//     incremented epoch.
//
// Only after (4) does Recover return data to the application: returning
// earlier could externalize state that a subsequent failure un-recovers.

// Recovery time breaks down as Fig 11(b) does via trace spans: Recover emits
// an "ncl"/"recover" span with child spans "recover.getpeer" (controller
// ap-map fetch), "recover.connect" (peer lookups + QP connects),
// "recover.rdmaread" (the policy's read phase) and "recover.syncpeer" (the
// policy's sync phase + replacements). Attach a trace.Collector to the Sim
// to observe them.

// Recover reopens the named ncl file. A log this instance still holds (it
// was opened or recovered here and not released) is returned as it is;
// otherwise the file is rebuilt from its log peers and returned with its
// recovered content, ready for further records. A name the ap-map does not
// hold is ErrNotFound, and that lookup was no recovery: its spans are
// relabelled "lookup", so every "recover" span in a trace is a file that was
// rebuilt.
func (l *Lib) Recover(p *simnet.Proc, name string) (*Log, error) {
	if lg, ok := l.logs[name]; ok {
		return lg, nil
	}
	rsp := p.StartSpan("ncl", "recover", trace.Str("file", name))
	defer p.EndSpan(rsp)

	// (1) ap-map fetch.
	sp := p.StartSpan("ncl", "recover.getpeer")
	entry, ver, err := l.lookup(p, name)
	p.EndSpan(sp)
	if err != nil {
		if rsp != nil {
			rsp.Op, sp.Op = "lookup", "lookup.getpeer"
		}
		return nil, err
	}

	// The entry's policy is authoritative — not this instance's config.
	spec, err := ParsePolicy(entry.Policy)
	if err != nil {
		return nil, fmt.Errorf("ncl: recover %s: %w", name, err)
	}
	lg := l.newLog(name, spec, entry.Capacity, entry.AppendOnly, entry.Epoch, ver)
	// The poller runs from here so completion routing works during recovery.
	lg.start(p)

	// (2) Contact peers: mr-map lookup + QP connect. Membership slots are
	// positional (for ec, slot i holds fragment i), so lg.peers keeps the
	// entry's order with nil holes for unreachable members.
	sp = p.StartSpan("ncl", "recover.connect")
	var alive []*peerConn
	lg.peers = make([]*peerConn, len(entry.Peers))
	for i, pname := range entry.Peers {
		look, err := wire.CallTimeout[peer.LookupResp](p, l.sim.Net(), l.node, peer.Addr(pname),
			peer.LookupReq{App: l.appID, File: name}, 20*time.Millisecond)
		if err != nil {
			continue
		}
		qp, err := l.nic.Connect(p, pname, lg.cq)
		if err != nil {
			continue
		}
		pc := &peerConn{name: pname, qp: qp, rkey: look.RKey, slot: i}
		lg.registerConn(pc)
		alive = append(alive, pc)
		lg.peers[i] = pc
	}
	p.EndSpan(sp)
	if len(alive) < lg.place.MinAlive {
		return nil, fmt.Errorf("%w: %d of %d peers reachable (need %d)",
			ErrUnavailable, len(alive), len(entry.Peers), lg.place.MinAlive)
	}

	// (3) Read phase: the policy reconstructs buf/length/seq from the
	// reachable members.
	sp = p.StartSpan("ncl", "recover.rdmaread")
	if err := lg.policy.Recover(p, lg, alive); err != nil {
		p.EndSpan(sp)
		return nil, err
	}
	p.EndSpan(sp)

	// (4) Sync phase: catch survivors up, then replace the rest. Frame-log
	// placements always republish under a bumped epoch even with a full
	// house — post-recovery frames must outrank any stale frames beyond the
	// recovered prefix on generation.
	sp = p.StartSpan("ncl", "recover.syncpeer")
	if err := lg.policy.Resync(p, lg, alive); err != nil {
		p.EndSpan(sp)
		return nil, err
	}
	needReplace := 0
	for _, pc := range lg.peers {
		if pc == nil || pc.failed {
			needReplace++
		}
	}
	if needReplace > 0 || lg.place.FrameLog {
		if err := lg.replaceAtRecovery(p, entry.Peers); err != nil {
			p.EndSpan(sp)
			return nil, err
		}
	}
	p.EndSpan(sp)

	l.logs[name] = lg
	return lg, nil
}

// readInto issues a 1-sided RDMA read from pc's region into buf and waits.
func (lg *Log) readInto(p *simnet.Proc, pc *peerConn, off int, buf []byte) error {
	id, done := lg.newBulkWaiter()
	defer delete(lg.bulks, id)
	pc.qp.PostRead(p, pc.rkey, off, buf, bulkCtx(id))
	return awaitBulk(p, done, 1)
}

// replaceAtRecovery fills the missing membership slots with fresh,
// caught-up peers and publishes the membership under an incremented epoch.
// Slots are preserved (ec fragment i must land in slot i); with zero
// replacements this is a pure epoch bump (the ec/quorum generation fence).
func (lg *Log) replaceAtRecovery(p *simnet.Proc, oldPeers []string) error {
	newEpoch := lg.epoch + 1
	exclude := append([]string(nil), oldPeers...)
	for slot, pc := range lg.peers {
		if pc != nil && !pc.failed {
			continue
		}
		if pc != nil {
			pc.qp.Close(p)
			lg.peers[slot] = nil
		}
		npc, err := lg.fillSlot(p, slot, exclude, newEpoch, false)
		if err != nil {
			return fmt.Errorf("ncl: recovery replacement: %w", err)
		}
		exclude = append(exclude, npc.name)
		lg.activate(p, npc, false)
	}
	ver, err := lg.publish(p, lg.fileEntry(newEpoch))
	if err != nil {
		return fmt.Errorf("ncl: recovery ap-map update: %w", err)
	}
	lg.apVersion, lg.epoch = ver, newEpoch
	return nil
}
