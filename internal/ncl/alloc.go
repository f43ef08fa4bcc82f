package ncl

import (
	"fmt"
	"sort"
	"time"

	"splitft/internal/controller"
	"splitft/internal/peer"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// This file is the one allocator (§4.3): every membership slot — at open, at
// recovery, and under a live replacement — gets its peer from allocate, which
// reads the peer registry, filters and ranks the candidates, and tries them
// in order until one sets up a region. The controller's registry is a hint
// either way: the peer itself accepts or rejects the setup.
//
// How often the registry is re-read is the one thing cfg.Model.PoolRefresh
// sets: the cached copy is used while it is younger than that. At 0 every
// attempt pays one ListPeers round trip — the paper's per-slot controller
// query; above 0 a thousand logs opened in the same interval share one read.
//
// Two candidate orders remain, chosen by the same knob because merging them
// moves every placement-dependent number (DESIGN.md §14): most-free-first is
// what the paper's controller answers, and with a shared stale registry it
// would pile every log of the interval onto the same "most free" peers, which
// is what rendezvous order with failure-domain spread avoids.

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
	if l.reg.peers != nil && now-l.reg.fetchedAt < l.cfg.Model.PoolRefresh {
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

// rankMostFree orders cands most-free first with a name tiebreak — the
// paper's controller hint.
func rankMostFree(cands []controller.PeerInfo) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].AvailMem != cands[j].AvailMem {
			return cands[i].AvailMem > cands[j].AvailMem
		}
		return cands[i].Name < cands[j].Name
	})
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

// rank orders cands for one slot of lg.
func (l *Lib) rank(lg *Log, cands []controller.PeerInfo) {
	if l.cfg.Model.PoolRefresh == 0 {
		rankMostFree(cands)
		return
	}
	occupied := make(map[string]int)
	for _, pc := range lg.peers {
		if pc != nil && pc.domain != "" {
			occupied[pc.domain]++
		}
	}
	rankRendezvous(cands, l.appID+"/"+lg.name, occupied)
}

// allocate finds a peer for one slot of lg, sets up a region under epoch and
// connects a QP, trying up to SetupRetries candidates. exclude names peers
// the slot must not land on (the log's other members); recent data-path
// suspects are excluded too, since the controller's registry only drops them
// after session expiry. With live set — a replacement under running writes —
// the registry read and the set-up are bracketed by Table 3's
// "replace.getpeer" and "replace.connect" spans.
func (l *Lib) allocate(p *simnet.Proc, lg *Log, exclude []string, epoch int64, live bool) (*peerConn, error) {
	tried := append(append([]string(nil), exclude...), l.suspectNames(p.Now())...)
	for attempt := 0; attempt < l.cfg.Model.SetupRetries; attempt++ {
		sp := replaceSpan(p, live, "replace.getpeer")
		peers, fresh, err := l.registry(p)
		p.EndSpan(sp)
		if err != nil {
			return nil, fmt.Errorf("ncl: list peers: %w", err)
		}
		cands := eligible(peers, tried, lg.regionSize())
		if len(cands) == 0 {
			if fresh {
				return nil, ErrNoPeers
			}
			// Newly registered capacity may be hidden by a stale cache.
			l.reg.peers = nil
			continue
		}
		l.rank(lg, cands)
		cand := cands[0]
		tried = append(tried, cand.Name)
		sp = replaceSpan(p, live, "replace.connect")
		pc, err := l.connectPeer(p, lg, cand, epoch)
		p.EndSpan(sp)
		if err == nil {
			return pc, nil
		}
		// Rejected or dead: try the next candidate.
		l.dropFromRegistry(cand.Name)
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

// connectPeer asks one candidate to set up a region and connects a QP.
// The setup timeout scales with the region size: registration pins memory
// at the fabric's registration bandwidth, so large regions legitimately
// take hundreds of ms — allow 2x the modelled cost plus an RPC base.
func (l *Lib) connectPeer(p *simnet.Proc, lg *Log, cand controller.PeerInfo, epoch int64) (*peerConn, error) {
	rp := l.fabric.Params()
	reg := rp.RegFixed + time.Duration(float64(lg.regionSize())/rp.RegBandwidth*float64(time.Second))
	timeout := 200*time.Millisecond + 2*reg
	setup, err := wire.CallTimeout[peer.SetupResp](p, l.sim.Net(), l.node, cand.Addr, peer.SetupReq{
		App: l.appID, File: lg.name, Size: lg.regionSize(), Epoch: epoch,
	}, timeout)
	if err != nil {
		return nil, err
	}
	qp, err := l.nic.Connect(p, cand.Name, lg.cq)
	if err != nil {
		return nil, err
	}
	pc := &peerConn{name: cand.Name, qp: qp, rkey: setup.RKey, domain: cand.Domain}
	lg.registerConn(pc)
	return pc, nil
}
