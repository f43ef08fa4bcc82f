package ncl

import (
	"fmt"
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
// at a time.
func (lg *Log) repairLoop(p *simnet.Proc) {
	for {
		if _, ok := lg.repairCh.Recv(p); !ok {
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

// fillSlot gives a membership slot a fresh peer (§4.5.2 steps 1-2): allocate
// a region under epoch on a peer outside exclude, then bulk catch-up the new
// peer with the policy's replica content for that slot ("ncl-lib copies the
// contents of the ncl file from its local buffer" — for ec, the slot's
// fragment log; for quorum, the journal). The returned peer is connected and
// caught up but not yet active. live marks a replacement under running
// writes: the catch-up snapshot is cut under lg.mu, and the steps are traced
// as Table 3's "replace.getpeer" / ".connect" / ".catchup".
func (lg *Log) fillSlot(p *simnet.Proc, slot int, exclude []string, epoch int64, live bool) (*peerConn, error) {
	pc, err := lg.lib.allocate(p, lg, exclude, epoch, live)
	if err != nil {
		return nil, err
	}
	pc.slot = slot
	sp := replaceSpan(p, live, "replace.catchup")
	err = lg.policy.Repair(p, lg, pc.qp, pc.rkey, slot, live)
	p.EndSpan(sp)
	if err != nil {
		pc.qp.Close(p)
		return nil, fmt.Errorf("catch-up of %s: %w", pc.name, err)
	}
	return pc, nil
}

// activate installs a caught-up peer in its slot and counts it toward write
// quorums (§4.5.2 step 4). With no writer running, the catch-up left it
// holding everything up to lg.seq. Under running writes it is sent the delta
// accumulated since the catch-up cut as ordinary record WRs, so its
// completedSeq only advances once the delta lands and it joins quorums
// exactly when it is caught up; the caller holds lg.mu.
func (lg *Log) activate(p *simnet.Proc, pc *peerConn, live bool) {
	if live {
		lg.policy.Snapshot(p, lg, pc)
	} else {
		pc.completedSeq = lg.seq
	}
	pc.active = true
	lg.peers[pc.slot] = pc
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
	pc, err := lg.fillSlot(p, idx, members, newEpoch, true)
	if err != nil {
		return false
	}
	// ap-map switch under CAS; the epoch stamps the new membership.
	lg.mu.Lock(p)
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
	lg.activate(p, pc, true)
	lg.Replacements++
	lg.mu.Unlock(p)
	oldPC.qp.Close(p)
	return true
}
