package raft

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/wire"
)

// codeTestCmd is the test command code (outside raft's 0x20–0x2f range).
const codeTestCmd wire.Code = 0x7f

// cmdMsg wraps a string command for proposing.
func cmdMsg(s string) wire.Msg { return wire.Msg{Code: codeTestCmd, S: [3]string{s}} }

// regSM is a deterministic test state machine: an append-only register log.
type regSM struct {
	applied []string
}

func (m *regSM) Apply(cmd wire.Msg) wire.Msg {
	s := cmd.S[0]
	m.applied = append(m.applied, s)
	return cmdMsg(fmt.Sprintf("ok:%s@%d", s, len(m.applied)))
}

// harness runs one Raft group across n nodes.
type harness struct {
	sim      *simnet.Sim
	cluster  *Cluster
	nodes    map[string]*simnet.Node
	replicas map[string]*Replica
	sms      map[string]*regSM
	pending  string // id being (re)started; the SM factory records under it
}

func newHarness(seed int64, n int) *harness {
	s := simnet.New(seed)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
	}
	h := &harness{
		sim:      s,
		nodes:    make(map[string]*simnet.Node),
		replicas: make(map[string]*Replica),
		sms:      make(map[string]*regSM),
	}
	h.cluster = New(s, "ctrl", DefaultConfig(), ids, func() StateMachine {
		sm := &regSM{}
		h.sms[h.pending] = sm
		return sm
	})
	for _, id := range ids {
		node := s.NewNode(id)
		h.nodes[id] = node
		h.pending = id
		h.replicas[id] = h.cluster.StartNode(node, id)
	}
	return h
}

func (h *harness) restart(id string) {
	node := h.nodes[id]
	node.Restart()
	h.pending = id
	h.replicas[id] = h.cluster.StartNode(node, id)
}

func (h *harness) leaderCount() int {
	n := 0
	for id, r := range h.replicas {
		if h.nodes[id].Alive() && r.IsLeader() && r.node.Incarnation() == r.incarnation {
			n++
		}
	}
	return n
}

func (h *harness) leader() *Replica {
	for id, r := range h.replicas {
		if h.nodes[id].Alive() && r.IsLeader() && r.node.Incarnation() == r.incarnation {
			return r
		}
	}
	return nil
}

func TestElectsSingleLeader(t *testing.T) {
	h := newHarness(1, 3)
	var leaders int
	h.sim.Go("observer", func(p *simnet.Proc) {
		p.Sleep(2 * time.Second)
		leaders = h.leaderCount()
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
}

func TestProposeAppliesEverywhere(t *testing.T) {
	h := newHarness(2, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second) // allow election
		for i := 0; i < 5; i++ {
			res, err := client.Propose(p, cmdMsg(fmt.Sprintf("cmd%d", i)))
			if err != nil {
				t.Errorf("propose %d: %v", i, err)
			}
			if res.S[0] == "" {
				t.Errorf("propose %d: empty result", i)
			}
		}
		p.Sleep(500 * time.Millisecond) // let followers apply
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	for id, sm := range h.sms {
		if len(sm.applied) != 5 {
			t.Errorf("replica %s applied %d commands, want 5: %v", id, len(sm.applied), sm.applied)
			continue
		}
		for i, c := range sm.applied {
			if c != fmt.Sprintf("cmd%d", i) {
				t.Errorf("replica %s applied[%d] = %q", id, i, c)
			}
		}
	}
}

func TestProposeLatency(t *testing.T) {
	h := newHarness(3, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	var lat time.Duration
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		client.Propose(p, cmdMsg("warm")) // settle on the leader
		start := p.Now()
		if _, err := client.Propose(p, cmdMsg("x")); err != nil {
			t.Errorf("propose: %v", err)
		}
		lat = p.Now() - start
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Table 3 context: controller ops are a few ms.
	if lat < 500*time.Microsecond || lat > 15*time.Millisecond {
		t.Fatalf("commit latency = %v, want a few ms", lat)
	}
}

func TestLeaderCrashFailover(t *testing.T) {
	h := newHarness(4, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		if _, err := client.Propose(p, cmdMsg("before")); err != nil {
			t.Errorf("propose before: %v", err)
		}
		ldr := h.leader()
		if ldr == nil {
			t.Error("no leader")
			h.sim.Stop()
			return
		}
		ldr.node.Crash()
		// The group must recover and keep accepting commands.
		if _, err := client.Propose(p, cmdMsg("after")); err != nil {
			t.Errorf("propose after crash: %v", err)
		}
		p.Sleep(500 * time.Millisecond)
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Both commands applied, in order, on the surviving replicas.
	okReplicas := 0
	for id, sm := range h.sms {
		if !h.nodes[id].Alive() {
			continue
		}
		if fmt.Sprint(sm.applied) == "[before after]" {
			okReplicas++
		} else {
			t.Errorf("replica %s applied %v", id, sm.applied)
		}
	}
	if okReplicas < 2 {
		t.Fatalf("only %d healthy replicas applied both commands", okReplicas)
	}
}

func TestCrashedReplicaCatchesUpAfterRestart(t *testing.T) {
	h := newHarness(5, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	var victim string
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		client.Propose(p, cmdMsg("a"))
		// Crash a follower.
		for id, r := range h.replicas {
			if !r.IsLeader() {
				victim = id
				break
			}
		}
		h.nodes[victim].Crash()
		client.Propose(p, cmdMsg("b"))
		client.Propose(p, cmdMsg("c"))
		p.Sleep(100 * time.Millisecond)
		h.restart(victim)
		p.Sleep(2 * time.Second) // catch-up via AppendEntries
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	sm := h.sms[victim]
	if fmt.Sprint(sm.applied) != "[a b c]" {
		t.Fatalf("restarted replica applied %v, want [a b c] (log replay + catch-up)", sm.applied)
	}
}

func TestMinorityPartitionBlocksCommit(t *testing.T) {
	h := newHarness(6, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	client.deadline = time.Second
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		ldr := h.leader()
		if ldr == nil {
			t.Error("no leader")
			h.sim.Stop()
			return
		}
		// Isolate the leader from both followers.
		for id, n := range h.nodes {
			if id != ldr.id {
				h.sim.Net().Partition(ldr.node, n)
			}
		}
		h.sim.Net().Partition(ldr.node, client.node)
		if _, err := client.Propose(p, cmdMsg("x")); err == nil {
			// A new leader among the majority side may accept it — that is
			// correct. What must not happen: the isolated old leader commits.
			p.Sleep(time.Second)
			if ldr.CommitIndex() >= ldr.lastLogIndex() && len(h.sms[ldr.id].applied) > 0 &&
				h.sms[ldr.id].applied[len(h.sms[ldr.id].applied)-1] == "x" {
				t.Error("isolated leader applied the command")
			}
		}
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestLogsConvergeAfterPartitionHeals(t *testing.T) {
	h := newHarness(7, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		client.Propose(p, cmdMsg("a"))
		ldr := h.leader()
		if ldr == nil {
			t.Error("no leader")
			h.sim.Stop()
			return
		}
		// Partition the old leader away; majority elects a new one and
		// commits more entries.
		for id, n := range h.nodes {
			if id != ldr.id {
				h.sim.Net().Partition(ldr.node, n)
			}
		}
		key := hintKey{client.node.Name(), 0}
		h.cluster.hints[key] = (h.cluster.hints[key] + 1) % len(h.cluster.ids)
		client.Propose(p, cmdMsg("b"))
		client.Propose(p, cmdMsg("c"))
		// Heal; the old leader must adopt the majority log.
		for id, n := range h.nodes {
			if id != ldr.id {
				h.sim.Net().Heal(ldr.node, n)
			}
		}
		p.Sleep(2 * time.Second)
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	for id, sm := range h.sms {
		if fmt.Sprint(sm.applied) != "[a b c]" {
			t.Errorf("replica %s applied %v, want [a b c]", id, sm.applied)
		}
	}
}

func TestSafetyNoDivergentApply(t *testing.T) {
	// Under a chaotic schedule of crashes and restarts, all replicas'
	// applied sequences must be prefixes of one another.
	for seed := int64(10); seed < 16; seed++ {
		h := newHarness(seed, 3)
		client := NewClient(h.cluster, h.sim.NewNode("app"))
		client.deadline = 800 * time.Millisecond
		h.sim.Go("chaos", func(p *simnet.Proc) {
			ids := h.cluster.ids
			for round := 0; round < 4; round++ {
				p.Sleep(700 * time.Millisecond)
				victim := ids[p.Rand().Intn(len(ids))]
				if h.nodes[victim].Alive() {
					h.nodes[victim].Crash()
				}
				p.Sleep(500 * time.Millisecond)
				if !h.nodes[victim].Alive() {
					h.restart(victim)
				}
			}
		})
		h.sim.Go("client", func(p *simnet.Proc) {
			p.Sleep(time.Second)
			for i := 0; i < 12; i++ {
				client.Propose(p, cmdMsg(fmt.Sprintf("v%d", i))) // errors tolerated
				p.Sleep(300 * time.Millisecond)
			}
			p.Sleep(3 * time.Second)
			h.sim.Stop()
		})
		if err := h.sim.RunUntil(2 * time.Minute); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var longest []string
		for _, sm := range h.sms {
			if sm != nil && len(sm.applied) > len(longest) {
				longest = sm.applied
			}
		}
		for id, sm := range h.sms {
			if sm == nil {
				continue
			}
			for i, c := range sm.applied {
				if c != longest[i] {
					t.Fatalf("seed %d: replica %s diverged at %d: %q vs %q", seed, id, i, c, longest[i])
				}
			}
		}
	}
}

func TestClientNotLeaderRedirect(t *testing.T) {
	h := newHarness(8, 3)
	client := NewClient(h.cluster, h.sim.NewNode("app"))
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		// Point the hint at a follower deliberately; the hint must redirect.
		ldr := h.leader()
		for i, id := range h.cluster.ids {
			if ldr != nil && id != ldr.id {
				h.cluster.hints[hintKey{client.node.Name(), 0}] = i
				break
			}
		}
		if _, err := client.Propose(p, cmdMsg("x")); err != nil {
			t.Errorf("propose with wrong hint: %v", err)
		}
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestProposeToFollowerDirectly(t *testing.T) {
	h := newHarness(9, 3)
	app := h.sim.NewNode("app")
	h.sim.Go("client", func(p *simnet.Proc) {
		p.Sleep(time.Second)
		ldr := h.leader()
		if ldr == nil {
			t.Error("no leader")
			h.sim.Stop()
			return
		}
		for _, id := range h.cluster.ids {
			if id == ldr.id {
				continue
			}
			_, err := h.sim.Net().Call(p, app, h.cluster.Addr(id), cmdMsg("x"))
			if !errors.Is(err, ErrNotLeader) {
				t.Errorf("follower %s accepted proposal: %v", id, err)
			}
		}
		h.sim.Stop()
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// Every replica keeps its own election deadline (Raft §5.2): two followers
// whose drawn timeouts fall inside one electionTimeoutMin/4 window stand
// apart, and the first to stand wins in one round. On a timer shared by
// every replica's phase they stood on the same tick and split the vote.
func TestCloseTimeoutsElectInOneRound(t *testing.T) {
	h := newHarness(1, 3)
	h.sim.Go("driver", func(p *simnet.Proc) {
		defer h.sim.Stop()
		p.Sleep(time.Second)
		ldr := h.leader()
		if ldr == nil {
			t.Error("no leader")
			return
		}
		draw := 110 * time.Millisecond
		for _, id := range h.cluster.ids {
			if r := h.replicas[id]; r != ldr {
				r.electTimeout = draw
				draw += 4 * time.Millisecond
			}
		}
		p.Sleep(electionTimeoutMax) // every timer has slept on its new draw once
		term := ldr.Term()
		ldr.node.Crash()
		p.Sleep(electionTimeoutMax + 2*electionTimeoutMin)
		nl := h.leader()
		if nl == nil {
			t.Errorf("no leader elected after the leader's crash in term %d", term)
		} else if nl.Term() != term+1 {
			t.Errorf("after the leader's crash in term %d, %s leads term %d; want one elected in term %d", term, nl.id, nl.Term(), term+1)
		}
	})
	if err := h.sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
}
