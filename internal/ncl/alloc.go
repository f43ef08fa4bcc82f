package ncl

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"splitft/internal/controller"
	"splitft/internal/peer"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// This file is the one allocator (§4.3): every membership slot — a new log's
// whole group at open, the missing members at recovery, the one failed member
// under a live replacement — gets its peer from allocate, which reads the peer
// registry once, filters and ranks the candidates, picks one per slot and sets
// all of them up at once, going back only for the slots whose candidate
// failed. The controller's registry is a hint either way: the peer itself
// accepts or rejects the setup.
//
// Candidates are ranked one way: rendezvous order for the file with
// failure-domain spread, so files spread over the fleet and one domain's
// failure takes as few members of a log as the fleet allows. How often the
// registry is re-read is all cfg.PoolRefresh sets: the cached copy is used
// while it is younger than that. At 0 every wave pays one ListPeers round
// trip — the paper's controller query, once per group rather than per slot;
// above 0 a thousand logs opened in the same interval share one read.

// peerRegistry is the cached controller peer list; peers is nil until the
// first read and after an invalidation.
type peerRegistry struct {
	peers     []controller.PeerInfo
	fetchedAt time.Duration
}

// registry returns the peer list, re-reading it from the controller when the
// cached copy is at least PoolRefresh old; fresh reports that this call did.
func (l *Lib) registry(p *simnet.Proc) (peers []controller.PeerInfo, fresh bool, err error) {
	now := p.Now()
	if l.reg.peers != nil && now-l.reg.fetchedAt < l.cfg.PoolRefresh {
		return l.reg.peers, false, nil
	}
	if peers, err = l.ctrl.ListPeers(p); err != nil {
		return nil, false, err
	}
	l.reg = peerRegistry{peers: peers, fetchedAt: now}
	return peers, true, nil
}

// dropFromRegistry removes one entry of the cached list in place. Without
// this, a peer that died inside the refresh window keeps its rank and every
// allocation until the TTL lapses re-pays the full setup timeout against it.
// The peer re-enters at the next refresh: a rejection is not a death
// sentence.
func (l *Lib) dropFromRegistry(name string) {
	for i, info := range l.reg.peers {
		if info.Name == name {
			l.reg.peers = append(l.reg.peers[:i], l.reg.peers[i+1:]...)
			return
		}
	}
}

// eligible returns the peers not named in skip that advertise at least
// minMem.
func eligible(peers []controller.PeerInfo, skip []string, minMem int64) []controller.PeerInfo {
	skipped := make(map[string]bool, len(skip))
	for _, name := range skip {
		skipped[name] = true
	}
	out := make([]controller.PeerInfo, 0, len(peers))
	for _, info := range peers {
		if !skipped[info.Name] && info.AvailMem >= minMem {
			out = append(out, info)
		}
	}
	return out
}

// rdvWeight is FNV-1a over "peer|app/file" — the rendezvous (highest random
// weight) score of placing this file's slot on this peer.
func rdvWeight(peerName, key string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(peerName); i++ {
		h ^= uint64(peerName[i])
		h *= prime
	}
	h ^= '|'
	h *= prime
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// rankRendezvous orders cands by rendezvous weight for key, which spreads
// files across the fleet and keeps each file's placement stable under
// registry churn, then prefers failure domains the log occupies least
// (occupied counts its current members per domain), so one rack failure
// cannot take more members than the policy tolerates. The second sort is
// stable: within a usage tier the rendezvous order holds, and when no member
// advertises a domain the order is rendezvous order alone.
func rankRendezvous(cands []controller.PeerInfo, key string, occupied map[string]int) {
	weights := make(map[string]uint64, len(cands))
	for _, info := range cands {
		weights[info.Name] = rdvWeight(info.Name, key)
	}
	sort.Slice(cands, func(i, j int) bool {
		wi, wj := weights[cands[i].Name], weights[cands[j].Name]
		if wi != wj {
			return wi > wj
		}
		return cands[i].Name < cands[j].Name
	})
	if len(occupied) > 0 {
		sort.SliceStable(cands, func(i, j int) bool {
			return occupied[cands[i].Domain] < occupied[cands[j].Domain]
		})
	}
}

// pick orders cands for n slots of lg and returns the first n, one candidate
// per slot (fewer when cands run out). It ranks slot by slot, each slot
// counting the domains of the log's members that have not failed, of held —
// peers already set up for it — and of the slots picked before it, so the
// group spreads exactly as n single-slot picks in a row would. A failed member
// awaiting its replacement holds no domain: the replacement may take it.
func (l *Lib) pick(lg *Log, held []*peerConn, cands []controller.PeerInfo, n int) []controller.PeerInfo {
	n = min(n, len(cands))
	occupied := make(map[string]int)
	occupy := func(domain string) {
		if domain != "" {
			occupied[domain]++
		}
	}
	for _, pc := range lg.peers {
		if pc != nil && !pc.failed {
			occupy(pc.domain)
		}
	}
	for _, pc := range held {
		occupy(pc.domain)
	}
	key := l.appID + "/" + lg.name
	for i := 0; i < n; i++ {
		rankRendezvous(cands[i:], key, occupied)
		occupy(cands[i].Domain)
	}
	return cands[:n]
}

// setupRetries bounds how many set-up waves one allocation runs.
const setupRetries = 8

// allocate finds a peer for each of the given slots of lg, sets up a region
// under epoch on it and connects a QP: one registry read, one candidate per
// slot, every set-up at once. A slot whose candidate rejected or died goes
// into the next wave, at most setupRetries of them. exclude names peers the
// slots must not land on (the log's other members); recent data-path suspects
// are excluded too, since the controller's registry only drops them after
// session expiry. The returned conns know their slots, are registered with
// the log — wave by wave, in slot order, not in the order the replies came —
// and are not yet active; when a later wave fails, the conns of the earlier
// ones stay registered for the caller's teardown to close. With live set — a replacement under running writes —
// the registry read and the set-up are bracketed by Table 3's
// "replace.getpeer" and "replace.connect" spans.
//
// A spare group (an open that took one, see spare.go) is wave 0's candidate
// source instead of the registry: each slot it holds a member for is set up
// there, recycling that member's region, and the holes wait for wave 1 with
// the slots whose member failed.
func (l *Lib) allocate(p *simnet.Proc, lg *Log, slots []int, exclude []string, epoch int64, live bool, spare *spareGroup) ([]*peerConn, error) {
	tried := append(append([]string(nil), exclude...), l.suspectNames(p.Now())...)
	var pcs []*peerConn
	for wave := 0; wave < setupRetries; wave++ {
		var cands []controller.PeerInfo
		var again []int // the slots the next wave gets
		recycle := ""
		if wave == 0 && spare != nil {
			cands, slots, again = spare.candidates(slots, tried)
			recycle = spare.name
		} else {
			sp := replaceSpan(p, live, "replace.getpeer")
			peers, fresh, err := l.registry(p)
			p.EndSpan(sp)
			if err != nil {
				return nil, fmt.Errorf("ncl: list peers: %w", err)
			}
			cands = l.pick(lg, pcs, eligible(peers, tried, lg.regionSize()), len(slots))
			if len(cands) < len(slots) {
				if fresh {
					return nil, ErrNoPeers
				}
				// Newly registered capacity may be hidden by a stale cache.
				l.reg.peers = nil
				continue
			}
		}
		sp := replaceSpan(p, live, "replace.connect")
		got := make([]*peerConn, len(cands))
		errs := fanOut(p, l, cands, func(fp *simnet.Proc, i int, cand controller.PeerInfo) (err error) {
			got[i], err = l.connectPeer(fp, lg, cand, slots[i], epoch, recycle)
			return err
		})
		p.EndSpan(sp)
		for i, cand := range cands {
			tried = append(tried, cand.Name)
			if errs[i] != nil {
				// Rejected or dead: the slot gets the next candidate.
				l.dropFromRegistry(cand.Name)
				again = append(again, slots[i])
				continue
			}
			lg.registerConn(got[i])
			pcs = append(pcs, got[i])
		}
		slices.Sort(again)
		if slots = again; len(slots) == 0 {
			return pcs, nil
		}
	}
	return nil, ErrNoPeers
}

// replaceSpan opens one step span of a live replacement; otherwise it returns
// nil, which EndSpan ignores.
func replaceSpan(p *simnet.Proc, live bool, op string) *trace.Span {
	if !live {
		return nil
	}
	return p.StartSpan("ncl", op)
}

// connectPeer asks one candidate to set up a region for slot — taking over its
// region of the released file recycle, if one is named — and connects a QP.
// The setup timeout scales with the region size: registration pins memory at
// the fabric's registration bandwidth, so large regions legitimately take
// hundreds of ms — allow 2x what the fabric says it costs plus an RPC base.
func (l *Lib) connectPeer(p *simnet.Proc, lg *Log, cand controller.PeerInfo, slot int, epoch int64, recycle string) (*peerConn, error) {
	timeout := 200*time.Millisecond + 2*l.fabric.RegisterCost(lg.regionSize())
	setup, err := wire.CallTimeout[peer.SetupResp](p, l.sim.Net(), l.node, cand.Addr, peer.SetupReq{
		App: l.appID, File: lg.name, Size: lg.regionSize(), Epoch: epoch, Recycle: recycle,
	}, timeout)
	if err != nil {
		return nil, err
	}
	qp, err := l.nic.Connect(p, cand.Name, lg.cq)
	if err != nil {
		return nil, err
	}
	return &peerConn{name: cand.Name, qp: qp, rkey: setup.RKey, slot: slot, domain: cand.Domain}, nil
}
