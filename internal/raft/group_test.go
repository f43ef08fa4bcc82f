package raft

import (
	"fmt"
	"testing"
	"time"

	"splitft/internal/simnet"
)

// groupsHarness runs several independent Raft groups, each a Cluster with
// its own name, across the same n nodes of one sim: the layout of a
// benchmark that runs its own Raft group beside the controller's.
type groupsHarness struct {
	sim      *simnet.Sim
	clusters []*Cluster
	nodes    map[string]*simnet.Node
	// replicas[id][g] is group g's replica on node id.
	replicas map[string][]*Replica
	// sms[g][id] is group g's state machine on node id, filled as factories
	// fire during StartNode.
	sms     []map[string]*regSM
	pending string
}

func newGroupsHarness(seed int64, n, groups int) *groupsHarness {
	s := simnet.New(seed)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
	}
	h := &groupsHarness{
		sim:      s,
		nodes:    make(map[string]*simnet.Node),
		replicas: make(map[string][]*Replica),
		sms:      make([]map[string]*regSM, groups),
	}
	for g := 0; g < groups; g++ {
		g := g
		h.sms[g] = make(map[string]*regSM)
		h.clusters = append(h.clusters, New(s, fmt.Sprintf("grp%d", g), DefaultConfig(), ids, func() StateMachine {
			sm := &regSM{}
			h.sms[g][h.pending] = sm
			return sm
		}))
	}
	for _, id := range ids {
		h.nodes[id] = s.NewNode(id)
		h.startNode(id)
	}
	return h
}

// startNode boots node id's replica of every group.
func (h *groupsHarness) startNode(id string) {
	h.pending = id
	h.replicas[id] = h.replicas[id][:0]
	for _, c := range h.clusters {
		h.replicas[id] = append(h.replicas[id], c.StartNode(h.nodes[id], id))
	}
}

func (h *groupsHarness) restart(id string) {
	h.nodes[id].Restart()
	h.startNode(id)
}

// groupLeaders counts live leaders per group.
func (h *groupsHarness) groupLeaders() []int {
	out := make([]int, len(h.clusters))
	for id, reps := range h.replicas {
		if !h.nodes[id].Alive() {
			continue
		}
		for g, r := range reps {
			if r.IsLeader() && r.node.Incarnation() == r.incarnation {
				out[g]++
			}
		}
	}
	return out
}

// Groups that share nodes each elect exactly one leader, and proposals to
// different groups commit independently: each group's state machines see
// only that group's commands, on every node.
func TestSetGroupsCommitIndependently(t *testing.T) {
	const groups = 4
	h := newGroupsHarness(1, 3, groups)
	app := h.sim.NewNode("app")
	clients := make([]*Client, groups)
	for g := range clients {
		clients[g] = NewClient(h.clusters[g], app)
	}
	h.sim.Go("driver", func(p *simnet.Proc) {
		p.Sleep(time.Second) // allow elections
		for i := 0; i < 3; i++ {
			for g, cl := range clients {
				if _, err := cl.Propose(p, cmdMsg(fmt.Sprintf("g%d-cmd%d", g, i))); err != nil {
					t.Errorf("group %d propose %d: %v", g, i, err)
				}
			}
		}
		p.Sleep(500 * time.Millisecond) // let followers apply
		for g, n := range h.groupLeaders() {
			if n != 1 {
				t.Errorf("group %d: %d leaders, want 1", g, n)
			}
		}
		for g := 0; g < groups; g++ {
			for id, sm := range h.sms[g] {
				if len(sm.applied) != 3 {
					t.Errorf("group %d on %s: %d applied, want 3", g, id, len(sm.applied))
					continue
				}
				for i, s := range sm.applied {
					want := fmt.Sprintf("g%d-cmd%d", g, i)
					if s != want {
						t.Errorf("group %d on %s [%d] = %q, want %q", g, id, i, s, want)
					}
				}
			}
		}
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// Crashing one node fails over every group it led; after restart the node
// catches up in all groups.
func TestSetFailoverAndCatchUp(t *testing.T) {
	const groups = 3
	h := newGroupsHarness(3, 3, groups)
	app := h.sim.NewNode("app")
	h.sim.Go("driver", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		for g := 0; g < groups; g++ {
			cl := NewClient(h.clusters[g], app)
			if _, err := cl.Propose(p, cmdMsg(fmt.Sprintf("pre-g%d", g))); err != nil {
				t.Errorf("pre propose g%d: %v", g, err)
			}
		}
		h.nodes["c0"].Crash()
		p.Sleep(time.Second) // re-elections among survivors
		for g, n := range h.groupLeaders() {
			if n != 1 {
				t.Errorf("group %d after crash: %d leaders, want 1", g, n)
			}
		}
		for g := 0; g < groups; g++ {
			cl := NewClient(h.clusters[g], app)
			if _, err := cl.Propose(p, cmdMsg(fmt.Sprintf("post-g%d", g))); err != nil {
				t.Errorf("post propose g%d: %v", g, err)
			}
		}
		h.restart("c0")
		p.Sleep(time.Second)
		for g := 0; g < groups; g++ {
			sm := h.sms[g]["c0"]
			if len(sm.applied) != 2 {
				t.Errorf("group %d on restarted c0: applied %v, want 2 entries", g, sm.applied)
			}
		}
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
}
