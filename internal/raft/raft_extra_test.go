package raft

import (
	"fmt"
	"testing"
	"time"

	"splitft/internal/simnet"
)

// Additional Raft coverage: persistence across full-cluster restart, term
// monotonicity, vote durability, and the log-matching property under a
// randomized schedule.

func TestFullClusterRestartPreservesLog(t *testing.T) {
	h := newHarness(20, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	h.sim.Go("driver", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 4; i++ {
			if _, err := client.Propose(p, cmdMsg(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("propose %d: %v", i, err)
			}
		}
		// Take the whole ensemble down and bring it back: the log is
		// persistent state and must survive.
		for _, id := range h.cluster.ids {
			h.nodes[id].Crash()
		}
		p.Sleep(100 * time.Millisecond)
		for _, id := range h.cluster.ids {
			h.restart(id)
		}
		p.Sleep(2 * time.Second) // re-election + replay
		if _, err := client.Propose(p, cmdMsg("after-restart")); err != nil {
			t.Errorf("propose after full restart: %v", err)
		}
		p.Sleep(time.Second)
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Every restarted replica replayed the full history in order.
	want := "[v0 v1 v2 v3 after-restart]"
	for id, sm := range h.sms {
		if got := fmt.Sprint(sm.applied); got != want {
			t.Errorf("replica %s applied %v, want %v", id, got, want)
		}
	}
}

func TestTermsAreMonotonic(t *testing.T) {
	h := newHarness(21, 3)
	var samples []int
	h.sim.Go("observer", func(p *simnet.Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(300 * time.Millisecond)
			if ldr := h.leader(); ldr != nil {
				samples = append(samples, ldr.Term())
			}
			if i == 8 {
				if ldr := h.leader(); ldr != nil {
					ldr.node.Crash()
				}
			}
			if i == 12 {
				for _, id := range h.cluster.ids {
					if !h.nodes[id].Alive() {
						h.restart(id)
					}
				}
			}
		}
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatalf("leader terms went backwards: %v", samples)
		}
	}
	if len(samples) < 10 {
		t.Fatalf("too few leader observations: %d", len(samples))
	}
}

func TestLogMatchingUnderChaos(t *testing.T) {
	// Log matching: if two replicas' logs contain an entry with the same
	// index and term, the logs are identical up to that index. Checked
	// directly on the persistent logs after a chaotic run.
	h := newHarness(22, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	client.deadline = 700 * time.Millisecond
	h.sim.Go("chaos", func(p *simnet.Proc) {
		ids := h.cluster.ids
		for round := 0; round < 5; round++ {
			p.Sleep(600 * time.Millisecond)
			a := h.nodes[ids[p.Rand().Intn(len(ids))]]
			b := h.nodes[ids[p.Rand().Intn(len(ids))]]
			if a != b {
				h.sim.Net().Partition(a, b)
				p.Sleep(400 * time.Millisecond)
				h.sim.Net().Heal(a, b)
			}
		}
	})
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 15; i++ {
			client.Propose(p, cmdMsg(fmt.Sprintf("c%d", i))) //nolint:errcheck
			p.Sleep(250 * time.Millisecond)
		}
		p.Sleep(2 * time.Second)
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	logs := make(map[string][]entry)
	for _, id := range h.cluster.ids {
		logs[id] = h.cluster.disks[id].log
	}
	for _, a := range h.cluster.ids {
		for _, b := range h.cluster.ids {
			if a >= b {
				continue
			}
			la, lb := logs[a], logs[b]
			n := len(la)
			if len(lb) < n {
				n = len(lb)
			}
			for i := n - 1; i >= 1; i-- {
				if la[i].Term == lb[i].Term {
					// Same (index, term) => identical prefixes.
					for j := 1; j <= i; j++ {
						if la[j].Term != lb[j].Term || fmt.Sprint(la[j].Cmd) != fmt.Sprint(lb[j].Cmd) {
							t.Fatalf("log matching violated between %s and %s at %d", a, b, j)
						}
					}
					break
				}
			}
		}
	}
}

func TestClientDeadlineExpires(t *testing.T) {
	h := newHarness(23, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	client.deadline = 300 * time.Millisecond
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		// Kill the entire ensemble: proposals must fail within the deadline.
		for _, id := range h.cluster.ids {
			h.nodes[id].Crash()
		}
		start := p.Now()
		_, err := client.Propose(p, cmdMsg("doomed"))
		if err == nil {
			t.Error("propose to a dead ensemble succeeded")
		}
		if p.Now()-start > time.Second {
			t.Errorf("deadline not honoured: %v", p.Now()-start)
		}
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
}
