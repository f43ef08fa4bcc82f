package ncl

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"splitft/internal/controller"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

func namesOf(cands []controller.PeerInfo) []string {
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.Name
	}
	return names
}

// The filter and the candidate order, as pure functions of the registry.
func TestCandidateRanks(t *testing.T) {
	registry := []controller.PeerInfo{
		{Name: "p0", AvailMem: 8, Domain: "a"}, {Name: "p1", AvailMem: 9, Domain: "b"},
		{Name: "p2", AvailMem: 9, Domain: "a"}, {Name: "p3", AvailMem: 2, Domain: "c"},
		{Name: "p4", AvailMem: 9, Domain: "c"}, {Name: "p5", AvailMem: 8, Domain: "b"},
	}
	// Excluded names and peers below the slot's region size drop out; the
	// rest keep registry order, and ranking them leaves the registry alone.
	cands := eligible(registry, []string{"p1", "nobody"}, 8)
	if got, want := namesOf(cands), []string{"p0", "p2", "p4", "p5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("eligible = %v, want %v", got, want)
	}
	rankRendezvous(cands, "app1/wal-7", nil)
	if registry[0].Name != "p0" || registry[5].Name != "p5" {
		t.Errorf("ranking reordered the registry: %v", namesOf(registry))
	}
	// Rendezvous: descending weight for the key, whatever the input order,
	// and a different order for a different key.
	const key = "app1/wal-7"
	byWeight := eligible(registry, nil, 0)
	sort.Slice(byWeight, func(i, j int) bool { return rdvWeight(byWeight[i].Name, key) > rdvWeight(byWeight[j].Name, key) })
	for _, occupied := range []map[string]int{nil, {}, {"elsewhere": 3}} {
		// No member in any candidate's domain: every count is zero and the
		// order is rendezvous order alone.
		got := eligible(registry, nil, 0)
		slices.Reverse(got)
		rankRendezvous(got, key, occupied)
		if !reflect.DeepEqual(got, byWeight) {
			t.Errorf("rendezvous order (occupied %v) = %v, want %v", occupied, namesOf(got), namesOf(byWeight))
		}
	}
	other := eligible(registry, nil, 0)
	rankRendezvous(other, "app2/wal-7", nil)
	if reflect.DeepEqual(other, byWeight) {
		t.Errorf("two files rank the fleet identically: %v", namesOf(other))
	}
	// Domain spread: least-occupied domains first, rendezvous order within
	// each tier.
	spread := eligible(registry, nil, 0)
	rankRendezvous(spread, key, map[string]int{"a": 1, "c": 2})
	var want []controller.PeerInfo
	for _, dom := range []string{"b", "a", "c"} {
		for _, c := range byWeight {
			if c.Domain == dom {
				want = append(want, c)
			}
		}
	}
	if !reflect.DeepEqual(spread, want) {
		t.Errorf("spread order = %v, want %v", namesOf(spread), namesOf(want))
	}
}

// The placement property of the n-slot allocator: on an unchanged registry it
// names the same peers, in the same slot order, as n one-slot allocations in a
// row did — each of which excluded the members so far and counted their
// failure domains in rendezvous order — whatever the registry's TTL.
func TestGroupPickMatchesSerialPicks(t *testing.T) {
	var registry []controller.PeerInfo
	for i := 0; i < 14; i++ {
		info := controller.PeerInfo{Name: fmt.Sprintf("p%d", i), AvailMem: int64(8 + i*5%4)}
		if i < 12 { // the last two advertise no failure domain
			info.Domain = fmt.Sprintf("dom%d", i%4)
		}
		registry = append(registry, info)
	}
	member := &peerConn{name: "p3", domain: "dom3"} // a survivor the new slots join
	for _, ttl := range []time.Duration{0, time.Minute} {
		l := &Lib{appID: "app1"}
		l.cfg.PoolRefresh = ttl
		for n := 1; n <= 7; n++ {
			chosen, occupied := []string{member.name}, map[string]int{member.domain: 1}
			for slot := 0; slot < n; slot++ {
				cands := eligible(registry, chosen, 9)
				rankRendezvous(cands, "app1/wal-7", occupied)
				chosen = append(chosen, cands[0].Name)
				if cands[0].Domain != "" {
					occupied[cands[0].Domain]++
				}
			}
			lg := &Log{name: "wal-7", peers: []*peerConn{member, nil}}
			got := namesOf(l.pick(lg, nil, eligible(registry, chosen[:1], 9), n))
			if !reflect.DeepEqual(got, chosen[1:]) {
				t.Errorf("ttl %v: %d-slot pick = %v, %d serial picks = %v", ttl, n, got, n, chosen[1:])
			}
			// A second wave counts the peers the first one set up like members.
			lg.peers = nil
			if got := namesOf(l.pick(lg, []*peerConn{member}, eligible(registry, chosen[:1], 9), n)); !reflect.DeepEqual(got, chosen[1:]) {
				t.Errorf("ttl %v: %d-slot pick beside a held peer = %v, want %v", ttl, n, got, chosen[1:])
			}
		}
	}
}

// A live replacement ranks as an open does, in rendezvous order with
// failure-domain spread, so the newcomer lands in the one domain the log's
// live members do not occupy, at either registry TTL; with a TTL it is also
// served from the cached registry, with no controller list. The fleet is six
// peers in three domains (peer i in dom i%3). A large log x makes three peers
// less free than the rest, and log y lands on the freest — what a most-free
// rank would do — or wherever rendezvous puts it. Then y's member in dom1
// dies: a most-free rank would replace it with the freest of x's peers in
// name order, peer0, a second member in dom0, while dom1 still has a live
// peer; so would a rank that counted the dead member's domain as taken. The
// victim is a member of x too, which posts nothing and is repaired all the
// same, so Table 3's spans are counted per file.
func TestLiveReplacementUsesCachedRegistry(t *testing.T) {
	for _, ttl := range []time.Duration{0, time.Minute} {
		c := newCluster(41, 6, smallPeerCfg())
		c.domains = 3
		c.run(t, func(p *simnet.Proc) {
			libCfg := DefaultConfig()
			libCfg.PoolRefresh = ttl
			l, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, libCfg)
			if err != nil {
				t.Fatalf("ttl %v: new lib: %v", ttl, err)
			}
			x, err := l.Open(p, "x", 16<<20, false)
			if err != nil {
				t.Fatalf("ttl %v: open x: %v", ttl, err)
			}
			p.Sleep(100 * time.Millisecond) // the peers' free memory republished
			lg, err := l.Open(p, "y", 1<<20, false)
			if err != nil {
				t.Fatalf("ttl %v: open y: %v", ttl, err)
			}
			occupied, victim := map[string]bool{}, ""
			for _, pc := range lg.peers {
				occupied[pc.domain] = true
				if pc.domain == "dom1" {
					victim = pc.name
				}
			}
			if len(occupied) != 3 {
				t.Fatalf("ttl %v: open put 3 members in %d domains", ttl, len(occupied))
			}
			shared := slices.Contains(x.LivePeers(), victim)
			col := trace.New()
			c.sim.SetTracer(col)
			c.pNodes[victim].Crash()
			for i := 0; i < 10; i++ {
				if _, err := lg.Append(p, []byte("during")); err != nil {
					t.Fatalf("ttl %v: append: %v", ttl, err)
				}
			}
			p.Sleep(time.Second)
			c.sim.SetTracer(nil)
			if lg.Replacements != 1 || len(lg.LivePeers()) != 3 {
				t.Fatalf("ttl %v: replacements = %d, live = %v", ttl, lg.Replacements, lg.LivePeers())
			}
			// x posts nothing, but the peer y lost is down for every log of
			// the lib: x is repaired too.
			if !shared || x.Replacements != 1 || len(x.LivePeers()) != 3 || slices.Contains(x.LivePeers(), victim) {
				t.Fatalf("ttl %v: x (member %s: %v) after it died: replacements = %d, live = %v", ttl, victim, shared, x.Replacements, x.LivePeers())
			}
			if n := trace.Count(col.Spans(), "controller", "list"); ttl > 0 && n != 0 {
				t.Errorf("ttl %v: %d controller list RPCs inside the registry TTL, want 0", ttl, n)
			}
			if n := getpeersOf(col.Spans(), "y"); n != 1 {
				t.Errorf("ttl %v: %d replace.getpeer spans for y, want 1 (Table 3 is a span query)", ttl, n)
			}
			domains := map[string]int{}
			for _, pc := range lg.peers {
				domains[pc.domain]++
			}
			if len(domains) != 3 {
				t.Errorf("ttl %v: after replacing %s members %v span domains %v, want one in each of 3", ttl, victim, lg.LivePeers(), domains)
			}
		})
	}
}

// getpeersOf counts the "replace.getpeer" spans of the live replacements of
// file.
func getpeersOf(spans []*trace.Span, file string) int {
	replaces := map[trace.SpanID]bool{}
	n := 0
	for _, sp := range spans {
		switch {
		case sp.Layer == "ncl" && sp.Op == "replace" && sp.StrAttr("file") == file:
			replaces[sp.ID] = true
		case sp.Layer == "ncl" && sp.Op == "replace.getpeer" && replaces[sp.Parent]:
			n++
		}
	}
	return n
}

// Regression: a peer that dies inside the registry's refresh window is
// blamed on the first failed set-up, so the next allocation that ranks it
// first skips it instead of re-paying a set-up timeout — at every TTL: at 0
// each wave re-reads the registry, which still lists the peer until its
// session expires.
func TestPoolDropsDeadPeerInsideRefreshWindow(t *testing.T) {
	for _, ttl := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprintf("ttl=%v", ttl), func(t *testing.T) {
			c := newCluster(31, 5, smallPeerCfg())
			c.run(t, func(p *simnet.Proc) {
				libCfg := DefaultConfig()
				libCfg.PoolRefresh = ttl
				l, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, libCfg)
				if err != nil {
					t.Fatalf("new lib: %v", err)
				}
				lg, err := l.Open(p, "warm", 1<<20, false) // warms the registry cache
				if err != nil {
					t.Fatalf("open warm: %v", err)
				}
				member := map[string]bool{}
				for _, n := range lg.LivePeers() {
					member[n] = true
				}
				// Crash a spare (non-member), so no repair traffic interferes and
				// the only way the death is noticed is a failed allocation.
				victim := ""
				names := make([]string, 0, len(c.pNodes))
				for name := range c.pNodes {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					if !member[name] {
						victim = name
						break
					}
				}
				c.pNodes[victim].Crash()

				// File names whose rendezvous ranking puts the dead peer first, so
				// an allocation must try (and fail against) it.
				victimRanked := func(from int) string {
					for i := from; i < from+10000; i++ {
						cand := fmt.Sprintf("w%d", i)
						key := "app1/" + cand
						best, bw := "", uint64(0)
						for _, pn := range names {
							if w := rdvWeight(pn, key); w > bw {
								bw, best = w, pn
							}
						}
						if best == victim {
							return cand
						}
					}
					t.Fatal("no victim-ranked file name found")
					return ""
				}

				first := victimRanked(0)
				start := p.Now()
				lg2, err := l.Open(p, first, 1<<20, false)
				if err != nil {
					t.Fatalf("open %s: %v", first, err)
				}
				firstCost := p.Now() - start
				if firstCost < 200*time.Millisecond {
					t.Fatalf("first open took %v; expected it to pay one setup timeout against the dead peer", firstCost)
				}
				for _, n := range lg2.LivePeers() {
					if n == victim {
						t.Fatalf("dead peer %s became a member", victim)
					}
				}

				// A later allocation inside the blame window that would again
				// rank the dead peer first must not re-pay the setup timeout.
				second := victimRanked(10000)
				start = p.Now()
				if _, err := l.Open(p, second, 1<<20, false); err != nil {
					t.Fatalf("open %s: %v", second, err)
				}
				if cost := p.Now() - start; cost >= 100*time.Millisecond {
					t.Fatalf("second open took %v; the dead peer is blamed, no timeout should be paid", cost)
				}
			})
		})
	}
}

// Capacity beats blame: when the lib's blamed peers are all that stands
// between an allocation and enough candidates, they are re-admitted instead
// of the open failing ErrNoPeers — the peer blamed here lost one write to a
// partition that has healed since.
func TestAllocationReadmitsBlamedPeersWhenShort(t *testing.T) {
	c := newCluster(32, 3, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l := c.newLib(p, t, "app1", 0)
		lg, err := l.Open(p, "a", 1<<20, false)
		if err != nil {
			t.Fatalf("open a: %v", err)
		}
		if members := lg.LivePeers(); len(members) != len(c.pNodes) {
			t.Fatalf("log a has members %v; the test needs every peer in it", members)
		}
		victim := c.pNodes[lg.LivePeers()[0]]
		net := c.sim.Net()
		net.Partition(c.appNode, victim)
		if _, err := lg.Append(p, []byte("lost on one member")); err != nil {
			t.Fatalf("append: %v", err)
		}
		p.Sleep(10 * time.Millisecond) // the write to the victim fails, blaming it
		net.Heal(c.appNode, victim)
		if _, err := l.Open(p, "b", 1<<20, false); err != nil {
			t.Fatalf("open b with %s blamed and back: %v", victim.Name(), err)
		}
	})
}
