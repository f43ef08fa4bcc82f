package raft

import (
	"errors"

	"splitft/internal/simnet"
)

// ErrUnknownGroup rejects a message whose Meta names a group the receiving
// node does not run (a stale shard directory, or a misconfigured client).
var ErrUnknownGroup = errors.New("raft: unknown group")

// Set bundles several Raft groups that share one replica-id roster, one RPC
// endpoint per node, and one election ticker per node (ChubaoFS-style
// multi-raft). Each group keeps its own log, leader, and state machine, so
// the groups commit independently; only the node-level plumbing is shared.
//
// Wire layout: every message to a set endpoint carries its target group id
// in Msg.Meta (the carrier slot — reserved for transports, so client
// commands never use it). The endpoint demultiplexes on Meta, zeroes it,
// and hands the message to that group's replica; replies travel back on the
// RPC return path and need no tag. A single Raft group is a set of one.
type Set struct {
	sim    *simnet.Sim
	name   string
	cfg    Config
	ids    []string
	groups []*Cluster
}

// NewSet defines a multi-group set with a shared replica roster. Add the
// groups with AddGroup, then boot each node with StartNode.
func NewSet(s *simnet.Sim, name string, cfg Config, ids []string) *Set {
	return &Set{sim: s, name: name, cfg: cfg, ids: ids}
}

// AddGroup appends one Raft group to the set and returns its Cluster (hand
// it to NewClient; proposals are tagged automatically). smFactory builds a
// fresh state machine for a (re)starting replica; the log replay rebuilds
// its contents. All groups must be added before the first StartNode.
func (sn *Set) AddGroup(smFactory func() StateMachine) *Cluster {
	c := &Cluster{sim: sn.sim, name: sn.name, cfg: sn.cfg, ids: sn.ids,
		disks: make(map[string]*disk), smFact: smFactory, group: len(sn.groups)}
	for _, id := range sn.ids {
		c.disks[id] = &disk{log: make([]entry, 1)}
	}
	sn.groups = append(sn.groups, c)
	return c
}

// Groups returns the number of groups in the set.
func (sn *Set) Groups() int { return len(sn.groups) }

// Group returns group g's cluster.
func (sn *Set) Group(g int) *Cluster { return sn.groups[g] }

// Addr returns the shared RPC address of replica id (same for all groups).
func (sn *Set) Addr(id string) string { return sn.groups[0].Addr(id) }

// StartNode boots (or, after a crash, reboots) replica id of every group on
// node: one demultiplexing RPC endpoint, one shared election ticker, and
// per-group apply and group-commit persister procs. Returns the replicas in
// group order.
func (sn *Set) StartNode(node *simnet.Node, id string) []*Replica {
	if len(sn.groups) == 0 {
		panic("raft: StartNode on a set with no groups")
	}
	reps := make([]*Replica, len(sn.groups))
	for g, c := range sn.groups {
		reps[g] = newReplica(c, node, id)
	}
	sn.sim.Net().Register(sn.Addr(id), node, func(p *simnet.Proc, m simnet.Msg) (simnet.Msg, error) {
		g := int(m.Meta)
		if g < 0 || g >= len(reps) {
			return simnet.Msg{}, ErrUnknownGroup
		}
		m.Meta = 0
		return reps[g].handleRPC(p, m)
	})
	node.Go("raft-ticker:"+id, func(p *simnet.Proc) {
		gran := sn.cfg.ElectionTimeoutMin / 4
		for {
			p.Sleep(gran)
			for _, r := range reps {
				r.tick(p)
			}
		}
	})
	for _, r := range reps {
		node.Go("raft-apply:"+r.tag, r.applyLoop)
		node.Go("raft-persist:"+r.tag, r.persistLoop)
	}
	return reps
}

// groupTag is what Client.Propose stamps into Meta to reach this group.
func (c *Cluster) groupTag() uint64 { return uint64(c.group) }
