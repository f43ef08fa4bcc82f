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

// repairLoop waits for failure notifications and replaces failed peers one
// at a time. repairCh buffers a kick sent during a replacement, so a member
// failed meanwhile gets one more pass.
func (lg *Log) repairLoop(p *simnet.Proc) {
	for {
		if _, ok := lg.repairCh.Recv(p); !ok {
			return
		}
		// A recovering log replaces what it lost in its own sync phase; what
		// is failed after it is replaced here.
		if lg.Sync(p) != nil {
			return
		}
		backoff := 20 * time.Millisecond
		for {
			lg.mu.Lock(p)
			if lg.released {
				lg.mu.Unlock(p)
				return
			}
			idx := -1
			for i, pc := range lg.peers {
				if pc != nil && pc.failed {
					idx = i
					break
				}
			}
			lg.mu.Unlock(p)
			if idx < 0 {
				break
			}
			if lg.replacePeer(p, idx) {
				backoff = 20 * time.Millisecond
			} else {
				// No peer available (or the controller timed out): back off
				// so a saturated control plane is not hammered by every
				// degraded log at once.
				p.Sleep(backoff)
				if backoff < 2*time.Second {
					backoff *= 2
				}
			}
		}
	}
}

// peerDown is the lib's verdict on a peer one of its logs found unreachable
// (rdma.ErrRemoteDown): it is down for every log the lib holds. Each log that
// has it as a member not yet failed marks it failed and kicks its repair. A
// log that posts nothing — a successor opened ahead of its use — would
// otherwise never learn that it lost members, and a recovery could then find
// too few of them. The logs are walked in name order, one log's mu at a time.
func (l *Lib) peerDown(p *simnet.Proc, name string) {
	names := make([]string, 0, len(l.logs))
	for n := range l.logs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lg := l.logs[n]
		if lg == nil {
			continue // released meanwhile
		}
		lg.mu.Lock(p)
		for _, pc := range lg.peers {
			if pc != nil && pc.name == name && !pc.failed {
				pc.failed = true
				lg.repairCh.Send(p, struct{}{})
			}
		}
		lg.mu.Unlock(p)
	}
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
		return false
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
