package ncl

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// This file implements log-peer failure handling (§4.5.2): detecting failed
// peers (the poller marks them on RDMA completion errors), allocating a
// replacement, catching it up, and only then updating the ap-map — the
// ordering Fig 7(iii) shows is required to avoid data loss. Replacement of
// a single peer happens in the background while writes continue on the
// remaining quorum; when the policy's ack quorum is unreachable (more than
// f peers gone for mirror/quorum, any peer gone for ec), Record blocks
// until a replacement is caught up (the ~100 ms stall of Fig 12).

// repairLoop is the lib's one repair proc: it replaces the failed members of
// all its logs, one at a time, so that at most one catch-up runs per new peer
// and the lib backs off as one when no peer is to be had. A kick is a member's
// name when a log found it down (rdma.ErrRemoteDown), "" for any other
// failure and for a recovery that ended; a kick sent during a replacement is
// picked up before the next walk.
func (l *Lib) repairLoop(p *simnet.Proc) {
	for {
		down, _ := l.repairCh.Recv(p)
		backoff := 20 * time.Millisecond
		for {
			lg, idx := l.nextRepair(p, down)
			if lg == nil {
				break
			}
			if lg.replacePeer(p, idx) {
				backoff = 20 * time.Millisecond
			} else {
				// No peer available (or the controller timed out): back off
				// so a saturated control plane is not hammered.
				p.Sleep(backoff)
				if backoff < 2*time.Second {
					backoff *= 2
				}
			}
			down, _ = l.repairCh.TryRecv(p)
		}
	}
}

// nextRepair walks the lib's logs in name order, one log's mu at a time, and
// returns the failed slot to replace next, or nil. A peer named down is down
// for every log: each log marks it failed, since a log that posts nothing — a
// successor opened ahead of its use — would otherwise never learn that it
// lost members, and a recovery could then find too few of them. A log whose
// recovery has not ended is passed over: its sync phase replaces its own
// members. The first failed slot of the first stalled log wins — one with a
// record fewer than AckNeed members ever completed, so a Record waits on the
// replacement — and otherwise the first failed slot in name order.
func (l *Lib) nextRepair(p *simnet.Proc, down string) (*Log, int) {
	names := make([]string, 0, len(l.logs))
	for n := range l.logs {
		names = append(names, n)
	}
	sort.Strings(names)
	var next *Log
	nextIdx, nextStalled := -1, false
	for _, n := range names {
		lg := l.logs[n]
		if lg == nil {
			continue // released meanwhile
		}
		lg.mu.Lock(p)
		idx, acks := -1, 0
		for i, pc := range lg.peers {
			if pc == nil {
				continue
			}
			if pc.name == down {
				pc.failed = true
			}
			if pc.failed && idx < 0 {
				idx = i
			}
			if pc.active && pc.completedSeq >= lg.seq {
				acks++
			}
		}
		stalled := acks < lg.place.AckNeed
		skip := idx < 0 || lg.released || lg.rec != nil || next != nil && (nextStalled || !stalled)
		lg.mu.Unlock(p)
		if !skip {
			next, nextIdx, nextStalled = lg, idx, stalled
		}
	}
	return next, nextIdx
}

// vacant closes what is left of the failed members and returns the slots that
// hold no peer: every slot of a log being opened, the members a recovery could
// not reach or lost on the way.
func (lg *Log) vacant(p *simnet.Proc) (slots []int) {
	for slot, pc := range lg.peers {
		if pc != nil && !pc.failed {
			continue
		}
		if pc != nil {
			pc.qp.Close(p)
			lg.peers[slot] = nil
		}
		if slots == nil {
			slots = make([]int, 0, len(lg.peers)-slot)
		}
		slots = append(slots, slot)
	}
	return slots
}

// fillSlots gives membership slots fresh peers (§4.5.2 steps 1-2): allocate a
// region under epoch for each on peers outside exclude, then bulk catch-up
// the new peers, all at once, with the policy's replica content for their
// slots ("ncl-lib copies the contents of the ncl file from its local buffer"
// — for ec, the slot's fragment log; for quorum, the journal). The returned
// peers are connected and caught up but not yet active. live marks a
// replacement under running writes: the catch-up snapshot is cut under lg.mu,
// and the steps are traced as Table 3's "replace.getpeer" / ".connect" /
// ".catchup".
func (lg *Log) fillSlots(p *simnet.Proc, slots []int, exclude []string, epoch int64, live bool) ([]*peerConn, error) {
	pcs, err := lg.lib.allocate(p, lg, slots, exclude, epoch, live, nil, nil)
	if err != nil {
		return nil, err
	}
	sp := replaceSpan(p, live, "replace.catchup")
	errs := fanOut(p, lg.lib, pcs, func(fp *simnet.Proc, _ int, pc *peerConn) error {
		if err := lg.policy.Repair(fp, lg, pc, live); err != nil {
			return fmt.Errorf("catch-up of %s: %w", pc.name, err)
		}
		return nil
	})
	p.EndSpan(sp)
	if err := errors.Join(errs...); err != nil {
		for _, pc := range pcs {
			pc.qp.Close(p)
		}
		return nil, err
	}
	return pcs, nil
}

// activate installs caught-up peers in their slots and counts them toward
// write quorums (§4.5.2 step 4). With no writer running, the catch-up left
// them holding everything up to lg.seq. Under running writes a peer is sent
// the delta accumulated since the catch-up cut as ordinary record WRs, so its
// completedSeq only advances once the delta lands and it joins quorums
// exactly when it is caught up; the caller holds lg.mu.
func (lg *Log) activate(p *simnet.Proc, live bool, pcs ...*peerConn) {
	for _, pc := range pcs {
		if live {
			lg.policy.Snapshot(p, lg, pc)
		} else {
			pc.completedSeq = lg.seq
		}
		pc.active = true
		lg.peers[pc.slot] = pc
	}
}

// replacePeer substitutes the failed peer at idx with a fresh one. Order
// matters for safety (§4.5.2): fill the slot (allocate under a new epoch,
// catch up), CAS the ap-map with the new membership, and only then activate
// the peer, after which it counts toward write quorums.
//
// Each step is a trace span ("ncl"/"replace.getpeer", ".connect",
// ".catchup", ".apmap" under an "ncl"/"replace" parent) — Table 3's latency
// breakdown is a span query over one replacement.
func (lg *Log) replacePeer(p *simnet.Proc, idx int) bool {
	lg.mu.Lock(p)
	if lg.released || lg.peers[idx] == nil || !lg.peers[idx].failed {
		lg.mu.Unlock(p)
		return true
	}
	oldPC := lg.peers[idx]
	newEpoch := lg.epoch + 1
	members := lg.peerNames()
	lg.mu.Unlock(p)

	rsp := p.StartSpan("ncl", "replace", trace.Str("file", lg.name))
	defer p.EndSpan(rsp)
	pcs, err := lg.fillSlots(p, []int{idx}, members, newEpoch, true)
	if err != nil {
		return lg.released // a release overtook it: no peer is wanted
	}
	pc := pcs[0]
	// ap-map switch under CAS; the epoch stamps the new membership. A log
	// released meanwhile has its delete under way: it gets no CAS.
	lg.mu.Lock(p)
	if lg.released {
		lg.mu.Unlock(p)
		pc.qp.Close(p)
		return true
	}
	entry := lg.fileEntry(newEpoch)
	entry.Peers[idx] = pc.name
	lg.mu.Unlock(p)
	sp := p.StartSpan("ncl", "replace.apmap")
	ver, err := lg.publish(p, entry)
	p.EndSpan(sp)
	if err != nil {
		pc.qp.Close(p)
		return false
	}
	lg.mu.Lock(p)
	lg.apVersion, lg.epoch = ver, newEpoch
	lg.activate(p, true, pc)
	lg.Replacements++
	lg.mu.Unlock(p)
	oldPC.qp.Close(p)
	return true
}
