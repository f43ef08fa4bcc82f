// Package raft implements a compact Raft consensus protocol over the
// simulated network. It is the replication substrate for the NCL controller
// (the paper uses a fault-tolerant ZooKeeper instance; a three-replica Raft
// group provides the same guarantees — linearizable metadata operations that
// survive controller-node failures — with a comparable few-millisecond
// commit cost dominated by log fsyncs and quorum round trips).
//
// The implementation covers leader election with randomized timeouts, log
// replication with conflict rollback, the commit rule restricted to
// current-term entries, crash-restart with persistent term/vote/log, and
// linearizable reads (as no-op commands through the log). Log compaction is
// intentionally omitted: controller logs in every experiment stay far below
// the point where snapshotting matters.
package raft

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/wire"
)

// Config holds the group's costs. They live in internal/model (the unified
// hardware cost-model layer); this alias keeps the raft API self-contained.
type Config = model.RaftConfig

// DefaultConfig returns the baseline profile's Raft costs.
func DefaultConfig() Config {
	return model.Baseline().Controller.Raft
}

// The protocol's timers suit the controller's deployment: failover within
// a few hundred milliseconds. A replica that hears no leader for a random
// draw from [electionTimeoutMin, electionTimeoutMax) stands for election; a
// leader heartbeats an idle follower every heartbeatInterval; a replica
// holds a client's proposal at most proposeTimeout while it waits for
// commit.
const (
	heartbeatInterval  = 20 * time.Millisecond
	electionTimeoutMin = 100 * time.Millisecond
	electionTimeoutMax = 200 * time.Millisecond
	proposeTimeout     = 2 * time.Second
)

// StateMachine is the replicated application. Apply must be deterministic;
// it runs on every replica in log order. Commands and results are flat wire
// messages (see internal/wire); a command's code must lie outside raft's own
// 0x20–0x2f range.
type StateMachine interface {
	Apply(cmd wire.Msg) wire.Msg
}

// Errors returned to clients.
var (
	// ErrNotLeader carries a leader hint in its message ("" if unknown).
	ErrNotLeader = errors.New("raft: not leader")
	ErrTimeout   = errors.New("raft: proposal timed out")
	// ErrBusy sheds load before it is accepted: the leader's unapplied
	// backlog is already deeper than ApplyCPU can drain within
	// proposeTimeout, so appending another entry would only burn apply
	// capacity on a command whose proposer is guaranteed to time out.
	ErrBusy = errors.New("raft: apply backlog full")
)

// NotLeaderError rejects a proposal sent to a non-leader, carrying a hint
// to the current leader's id when known.
type NotLeaderError struct{ Hint string }

func (e NotLeaderError) Error() string        { return "raft: not leader; hint=" + e.Hint }
func (e NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

type entry struct {
	Term int
	Cmd  wire.Msg
}

// disk is the persistent state of one replica; it survives node crashes
// (in the Cluster registry, standing in for the replica's local SSD).
type disk struct {
	term     int
	votedFor string
	log      []entry // 1-indexed semantically; log[0] unused sentinel
}

// Cluster is one Raft group: it owns the durable state of the group's
// replicas and the naming needed to (re)start them. Clusters with distinct
// names run independently in one sim, even on shared nodes.
type Cluster struct {
	sim    *simnet.Sim
	name   string
	cfg    Config
	ids    []string
	disks  map[string]*disk
	smFact func() StateMachine
}

// New defines a Raft group named name over the replica ids. smFactory
// builds a fresh state machine for a (re)starting replica; the log replay
// rebuilds its contents. Boot each replica with StartNode.
func New(s *simnet.Sim, name string, cfg Config, ids []string, smFactory func() StateMachine) *Cluster {
	c := &Cluster{sim: s, name: name, cfg: cfg, ids: ids,
		disks: make(map[string]*disk), smFact: smFactory}
	for _, id := range ids {
		c.disks[id] = &disk{log: make([]entry, 1)}
	}
	return c
}

// Addr returns the RPC address of replica id.
func (c *Cluster) Addr(id string) string { return c.name + "/raft/" + id }

// StartNode boots (or, after a crash, reboots) replica id on node: its RPC
// endpoint, its election ticker, and its apply and group-commit persister
// procs.
func (c *Cluster) StartNode(node *simnet.Node, id string) *Replica {
	r := newReplica(c, node, id)
	c.sim.Net().Register(c.Addr(id), node, r.handleRPC)
	node.Go("raft-ticker:"+r.tag, func(p *simnet.Proc) {
		gran := electionTimeoutMin / 4
		for {
			p.Sleep(gran)
			r.tick(p)
		}
	})
	node.Go("raft-apply:"+r.tag, r.applyLoop)
	node.Go("raft-persist:"+r.tag, r.persistLoop)
	return r
}

type role int

const (
	follower role = iota
	candidate
	leader
)

// Replica is one running Raft participant. Cluster.StartNode starts it, and
// restarts it (fresh volatile state) after the node recovers.
type Replica struct {
	cluster *Cluster
	id      string
	tag     string // proc-name tag: <cluster>/<id>
	node    *simnet.Node
	d       *disk

	mu       simnet.Mutex
	role     role
	leaderID string

	commitIndex int
	lastApplied int
	sm          StateMachine

	// Leader volatile state.
	nextIndex  map[string]int
	matchIndex map[string]int

	lastHeard    time.Duration
	electTimeout time.Duration // randomized; redrawn after every candidate round
	electing     bool          // an election proc is in flight
	applyCond    *simnet.Cond  // signalled when commitIndex advances
	replWake     *simnet.Cond  // kicks replicators on new entries
	persistWake  *simnet.Cond  // kicks the group-commit persister on appends
	persisted    int           // highest log index covered by a finished fsync
	incarnation  int

	// applyResults holds state-machine results for entries this leader
	// proposed, keyed by log index, until the proposer collects them.
	applyResults map[int]wire.Msg
	// applyWaiters parks each in-flight proposer on its own cond, keyed by
	// log index, so apply-time wakeups are targeted rather than broadcast.
	applyWaiters map[int]*simnet.Cond
}

// newReplica builds replica id on node: persistent state is reloaded from the
// cluster's disk registry, volatile state starts fresh. StartNode registers
// its RPC endpoint and spawns the ticker, apply and persister procs.
func newReplica(c *Cluster, node *simnet.Node, id string) *Replica {
	r := &Replica{
		cluster:     c,
		id:          id,
		tag:         c.name + "/" + id,
		node:        node,
		d:           c.disks[id],
		role:        follower,
		sm:          c.smFact(),
		incarnation: node.Incarnation(),
	}
	r.applyCond = simnet.NewCond(&r.mu)
	r.replWake = simnet.NewCond(&r.mu)
	r.persistWake = simnet.NewCond(&r.mu)
	if r.d == nil {
		panic(fmt.Sprintf("raft: unknown replica id %q", id))
	}
	r.persisted = len(r.d.log) - 1 // the reloaded log is durable by definition
	return r
}

// callPeer sends one RPC to another replica of the group.
func (r *Replica) callPeer(p *simnet.Proc, addr string, req wire.Msg, timeout time.Duration) (wire.Msg, error) {
	return r.cluster.sim.Net().CallTimeout(p, r.node, addr, req, timeout)
}

func (r *Replica) persist(p *simnet.Proc) {
	p.Sleep(r.cluster.cfg.FsyncCost)
}

func (r *Replica) lastLogIndex() int { return len(r.d.log) - 1 }
func (r *Replica) lastLogTerm() int  { return r.d.log[len(r.d.log)-1].Term }

// Wire codes for raft's own RPCs (range 0x20–0x2f; see internal/wire). Any
// request whose code lies outside this range is a client command proposed
// into the log, so propose needs no envelope at all.
const (
	codeRequestVote   wire.Code = 0x20
	codeVoteReply     wire.Code = 0x21
	codeAppendEntries wire.Code = 0x22
	codeAppendReply   wire.Code = 0x23
	codeNop           wire.Code = 0x24
)

// Message types.
type requestVoteArgs struct {
	Term         int
	CandidateID  string
	LastLogIndex int
	LastLogTerm  int
}

func (a requestVoteArgs) MarshalWire() wire.Msg {
	return wire.Msg{Code: codeRequestVote, S: [3]string{a.CandidateID},
		U: [4]uint64{uint64(a.Term), uint64(a.LastLogIndex), uint64(a.LastLogTerm)}}
}

func (a *requestVoteArgs) UnmarshalWire(m wire.Msg) error {
	*a = requestVoteArgs{Term: int(m.Int(0)), CandidateID: m.S[0],
		LastLogIndex: int(m.Int(1)), LastLogTerm: int(m.Int(2))}
	return nil
}

type requestVoteReply struct {
	Term    int
	Granted bool
}

func (a requestVoteReply) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeVoteReply, U: [4]uint64{uint64(a.Term)}}
	m.SetBool(1, a.Granted)
	return m
}

func (a *requestVoteReply) UnmarshalWire(m wire.Msg) error {
	*a = requestVoteReply{Term: int(m.Int(0)), Granted: m.Bool(1)}
	return nil
}

type appendEntriesArgs struct {
	Term         int
	LeaderID     string
	PrevLogIndex int
	PrevLogTerm  int
	Entries      []entry
	LeaderCommit int
}

// MarshalWire ships each entry as its command message with the entry term
// stamped into Meta (the carrier slot); UnmarshalWire moves the term back
// out so state machines see the command exactly as proposed.
func (a appendEntriesArgs) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeAppendEntries, S: [3]string{a.LeaderID},
		U: [4]uint64{uint64(a.Term), uint64(a.PrevLogIndex), uint64(a.PrevLogTerm), uint64(a.LeaderCommit)}}
	if len(a.Entries) > 0 {
		sub := make([]wire.Msg, len(a.Entries))
		for i, e := range a.Entries {
			c := e.Cmd
			c.Meta = uint64(e.Term)
			sub[i] = c
		}
		m.Sub = sub
	}
	return m
}

func (a *appendEntriesArgs) UnmarshalWire(m wire.Msg) error {
	*a = appendEntriesArgs{Term: int(m.Int(0)), LeaderID: m.S[0],
		PrevLogIndex: int(m.Int(1)), PrevLogTerm: int(m.Int(2)), LeaderCommit: int(m.Int(3))}
	if len(m.Sub) > 0 {
		a.Entries = make([]entry, len(m.Sub))
		for i, c := range m.Sub {
			term := int(c.Meta)
			c.Meta = 0
			a.Entries[i] = entry{Term: term, Cmd: c}
		}
	}
	return nil
}

type appendEntriesReply struct {
	Term          int
	Success       bool
	ConflictIndex int
}

func (a appendEntriesReply) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeAppendReply, U: [4]uint64{uint64(a.Term)}}
	m.SetBool(1, a.Success)
	m.SetInt(2, int64(a.ConflictIndex))
	return m
}

func (a *appendEntriesReply) UnmarshalWire(m wire.Msg) error {
	*a = appendEntriesReply{Term: int(m.Int(0)), Success: m.Bool(1), ConflictIndex: int(m.Int(2))}
	return nil
}

func (r *Replica) handleRPC(p *simnet.Proc, m simnet.Msg) (simnet.Msg, error) {
	switch m.Code {
	case codeRequestVote:
		var a requestVoteArgs
		a.UnmarshalWire(m) //nolint:errcheck
		return r.onRequestVote(p, a).MarshalWire(), nil
	case codeAppendEntries:
		var a appendEntriesArgs
		a.UnmarshalWire(m) //nolint:errcheck
		return r.onAppendEntries(p, a).MarshalWire(), nil
	default:
		// Every non-raft code is a client command to propose.
		return r.onPropose(p, m)
	}
}

// stepDown transitions to follower in a newer term. Caller holds mu.
func (r *Replica) stepDown(p *simnet.Proc, term int) {
	r.d.term = term
	r.d.votedFor = ""
	r.role = follower
	r.leaderID = ""
	// Parked proposers wait on per-entry conds; losing leadership is the
	// one event that must wake all of them (their entries may never apply).
	// In log order, not map order: the order they resume in is the order
	// their RPC handlers reply, which a trace export records.
	parked := make([]int, 0, len(r.applyWaiters))
	for idx := range r.applyWaiters {
		parked = append(parked, idx)
	}
	sort.Ints(parked)
	for _, idx := range parked {
		r.applyWaiters[idx].Signal(p)
	}
	r.persist(p)
}

func (r *Replica) onRequestVote(p *simnet.Proc, a requestVoteArgs) requestVoteReply {
	r.mu.Lock(p)
	defer r.mu.Unlock(p)
	if a.Term > r.d.term {
		r.stepDown(p, a.Term)
	}
	reply := requestVoteReply{Term: r.d.term}
	if a.Term < r.d.term {
		return reply
	}
	upToDate := a.LastLogTerm > r.lastLogTerm() ||
		(a.LastLogTerm == r.lastLogTerm() && a.LastLogIndex >= r.lastLogIndex())
	if (r.d.votedFor == "" || r.d.votedFor == a.CandidateID) && upToDate {
		r.d.votedFor = a.CandidateID
		r.lastHeard = p.Now() // granting a vote resets the election timer
		r.persist(p)
		reply.Granted = true
	}
	return reply
}

func (r *Replica) onAppendEntries(p *simnet.Proc, a appendEntriesArgs) appendEntriesReply {
	r.mu.Lock(p)
	defer r.mu.Unlock(p)
	if a.Term > r.d.term {
		r.stepDown(p, a.Term)
	}
	reply := appendEntriesReply{Term: r.d.term}
	if a.Term < r.d.term {
		return reply
	}
	// Valid leader for our term.
	r.lastHeard = p.Now()
	r.leaderID = a.LeaderID
	if r.role != follower {
		r.role = follower
	}
	if a.PrevLogIndex > r.lastLogIndex() {
		reply.ConflictIndex = r.lastLogIndex() + 1
		return reply
	}
	if a.PrevLogIndex > 0 && r.d.log[a.PrevLogIndex].Term != a.PrevLogTerm {
		// Roll back to the first entry of the conflicting term.
		ct := r.d.log[a.PrevLogIndex].Term
		ci := a.PrevLogIndex
		for ci > 1 && r.d.log[ci-1].Term == ct {
			ci--
		}
		reply.ConflictIndex = ci
		return reply
	}
	// Append new entries, truncating on divergence.
	changed := false
	for i, e := range a.Entries {
		idx := a.PrevLogIndex + 1 + i
		if idx <= r.lastLogIndex() {
			if r.d.log[idx].Term != e.Term {
				r.d.log = r.d.log[:idx]
				r.d.log = append(r.d.log, e)
				changed = true
			}
		} else {
			r.d.log = append(r.d.log, e)
			changed = true
		}
	}
	if changed {
		r.persist(p)
		// Truncation can shrink the durable frontier; appends extend it.
		r.persisted = r.lastLogIndex()
	}
	if a.LeaderCommit > r.commitIndex {
		ci := a.LeaderCommit
		if ci > r.lastLogIndex() {
			ci = r.lastLogIndex()
		}
		if ci > r.commitIndex {
			r.commitIndex = ci
			r.applyCond.Broadcast(p)
		}
	}
	reply.Success = true
	return reply
}

// onPropose appends the command (if leader) and waits for it to commit and
// apply, returning the state machine's result.
func (r *Replica) onPropose(p *simnet.Proc, cmd wire.Msg) (wire.Msg, error) {
	r.mu.Lock(p)
	if r.role != leader {
		hint := r.leaderID
		r.mu.Unlock(p)
		return wire.Msg{}, NotLeaderError{Hint: hint}
	}
	if cpu := r.cluster.cfg.ApplyCPU; cpu > 0 {
		// Admission control: if the unapplied backlog already needs more
		// than proposeTimeout of apply CPU, this command cannot possibly
		// answer in time — reject it now, cheaply, instead of letting it
		// queue, time out, and still consume apply capacity later (the
		// retry amplification that melts a saturated group).
		if backlog := r.lastLogIndex() - r.lastApplied; time.Duration(backlog)*cpu >= proposeTimeout {
			r.mu.Unlock(p)
			return wire.Msg{}, ErrBusy
		}
	}
	r.d.log = append(r.d.log, entry{Term: r.d.term, Cmd: cmd})
	idx := r.lastLogIndex()
	term := r.d.term
	// Group commit: the fsync happens off this path, in persistLoop, where
	// one disk sync covers every entry appended while the previous sync ran.
	// Proposers therefore hold mu only for the in-memory append — under a
	// proposal burst the replicators (which need mu to build AppendEntries,
	// heartbeats included) are never starved behind a convoy of serialized
	// fsyncs, which is what used to flap leadership on a saturated group.
	// Replication starts immediately; the commit rule counts this replica
	// only once the persister has caught up past idx.
	r.persistWake.Broadcast(p)
	r.replWake.Broadcast(p)
	// Park on a per-proposal cond: the apply loop signals exactly the
	// waiters whose entries it applied, and stepDown wakes everyone. A
	// shared broadcast cond here would wake every parked proposer on every
	// committed batch — an O(waiters²) thundering herd once a group backs
	// up.
	waiter := simnet.NewCond(&r.mu)
	if r.applyWaiters == nil {
		r.applyWaiters = make(map[int]*simnet.Cond)
	}
	r.applyWaiters[idx] = waiter
	defer delete(r.applyWaiters, idx)
	deadline := p.Now() + proposeTimeout
	for r.lastApplied < idx {
		if r.d.term != term || r.role != leader {
			r.mu.Unlock(p)
			return wire.Msg{}, NotLeaderError{Hint: r.leaderID}
		}
		now := p.Now()
		if now >= deadline {
			r.mu.Unlock(p)
			return wire.Msg{}, ErrTimeout
		}
		waiter.WaitTimeout(p, deadline-now)
	}
	// Verify the entry at idx is still ours (no truncation by a new leader).
	if r.d.log[idx].Term != term {
		r.mu.Unlock(p)
		return wire.Msg{}, NotLeaderError{Hint: r.leaderID}
	}
	res := r.applyResults[idx]
	delete(r.applyResults, idx)
	r.mu.Unlock(p)
	return res, nil
}

// persistLoop is the group-commit disk path: whenever the log has entries
// beyond the last finished fsync it syncs once, covering all of them, then
// re-checks. Leader-side durability feeds the commit rule from here — the
// replica's own matchIndex advances only when the fsync that covers an entry
// completes (followers may still form a majority without it, as in any Raft
// where replication runs in parallel with the leader's disk write). The
// follower append path persists synchronously per RPC and keeps `persisted`
// up to date itself, so this proc only ever works on a leader's backlog.
func (r *Replica) persistLoop(p *simnet.Proc) {
	r.mu.Lock(p)
	for {
		for r.persisted >= r.lastLogIndex() {
			r.persistWake.Wait(p)
		}
		target := r.lastLogIndex()
		r.mu.Unlock(p)
		p.Sleep(r.cluster.cfg.FsyncCost)
		r.mu.Lock(p)
		if n := r.lastLogIndex(); n < target {
			target = n // truncated by a new leader while the sync ran
		}
		if target > r.persisted {
			r.persisted = target
		}
		if r.role == leader && r.persisted > r.matchIndex[r.id] {
			r.matchIndex[r.id] = r.persisted
			r.advanceCommit(p)
		}
	}
}

// tick checks the election timer once and, when it has expired, runs the
// candidate round on a dedicated proc. The indirection keeps the ticker
// (StartNode) non-blocking while the round holds its vote RPCs in flight for
// up to an election timeout.
func (r *Replica) tick(p *simnet.Proc) {
	r.mu.Lock(p)
	if r.electTimeout == 0 {
		r.drawTimeout(p)
	}
	if r.role == leader || r.electing || p.Now()-r.lastHeard < r.electTimeout {
		r.mu.Unlock(p)
		return
	}
	r.electing = true
	r.mu.Unlock(p)
	p.GoOn(r.node, "raft-elect:"+r.tag, func(ep *simnet.Proc) {
		r.mu.Lock(ep)
		if r.role != leader && ep.Now()-r.lastHeard >= r.electTimeout {
			r.startElection(ep)
		}
		r.drawTimeout(ep)
		r.electing = false
		r.mu.Unlock(ep)
	})
}

// drawTimeout redraws the randomized election timeout. Caller holds mu.
func (r *Replica) drawTimeout(p *simnet.Proc) {
	span := electionTimeoutMax - electionTimeoutMin
	r.electTimeout = electionTimeoutMin + time.Duration(p.Rand().Int63n(int64(span)))
}

// startElection runs a candidate round. Caller holds mu; it is released
// while votes are in flight and reacquired before returning.
func (r *Replica) startElection(p *simnet.Proc) {
	r.role = candidate
	r.d.term++
	r.d.votedFor = r.id
	r.leaderID = ""
	r.lastHeard = p.Now()
	term := r.d.term
	r.persist(p)
	args := requestVoteArgs{
		Term:         term,
		CandidateID:  r.id,
		LastLogIndex: r.lastLogIndex(),
		LastLogTerm:  r.lastLogTerm(),
	}
	votes := 1
	responses := 1
	total := len(r.cluster.ids)
	done := simnet.NewChan[bool](r.cluster.sim)
	for _, peer := range r.cluster.ids {
		if peer == r.id {
			continue
		}
		addr := r.cluster.Addr(peer)
		p.Go("raft-vote-req:"+peer, func(vp *simnet.Proc) {
			m, err := r.callPeer(vp, addr, args.MarshalWire(), electionTimeoutMin)
			granted := false
			if err == nil {
				var rep requestVoteReply
				rep.UnmarshalWire(m) //nolint:errcheck
				r.mu.Lock(vp)
				if rep.Term > r.d.term {
					r.stepDown(vp, rep.Term)
				}
				r.mu.Unlock(vp)
				granted = rep.Granted
			}
			done.Send(vp, granted)
		})
	}
	r.mu.Unlock(p)
	for responses < total {
		g, ok := done.Recv(p)
		if !ok {
			break
		}
		responses++
		if g {
			votes++
		}
		if votes > total/2 {
			break
		}
	}
	r.mu.Lock(p)
	if r.role == candidate && r.d.term == term && votes > total/2 {
		r.becomeLeader(p)
	}
}

// becomeLeader initializes leader state and starts replicators. Holds mu.
func (r *Replica) becomeLeader(p *simnet.Proc) {
	r.role = leader
	r.leaderID = r.id
	r.nextIndex = make(map[string]int)
	r.matchIndex = make(map[string]int)
	for _, id := range r.cluster.ids {
		r.nextIndex[id] = r.lastLogIndex() + 1
		r.matchIndex[id] = 0
	}
	r.matchIndex[r.id] = r.lastLogIndex()
	term := r.d.term
	for _, peer := range r.cluster.ids {
		if peer == r.id {
			continue
		}
		peer := peer
		p.GoOn(r.node, "raft-repl:"+r.tag+">"+peer, func(rp *simnet.Proc) { r.replicate(rp, peer, term) })
	}
	// Commit a no-op to establish commitment in the new term promptly.
	r.d.log = append(r.d.log, entry{Term: term, Cmd: wire.Msg{Code: codeNop}})
	r.matchIndex[r.id] = r.lastLogIndex()
	r.persist(p)
	r.persisted = r.lastLogIndex()
	r.replWake.Broadcast(p)
}

// replicate drives one follower while r leads in `term`.
func (r *Replica) replicate(p *simnet.Proc, peer string, term int) {
	addr := r.cluster.Addr(peer)
	for {
		r.mu.Lock(p)
		if r.role != leader || r.d.term != term {
			r.mu.Unlock(p)
			return
		}
		ni := r.nextIndex[peer]
		if ni < 1 {
			ni = 1
		}
		args := appendEntriesArgs{
			Term:         term,
			LeaderID:     r.id,
			PrevLogIndex: ni - 1,
			PrevLogTerm:  r.d.log[ni-1].Term,
			LeaderCommit: r.commitIndex,
		}
		if r.lastLogIndex() >= ni {
			args.Entries = append([]entry(nil), r.d.log[ni:]...)
		}
		r.mu.Unlock(p)
		am, err := r.callPeer(p, addr, args.MarshalWire(), heartbeatInterval*2)
		var rep appendEntriesReply
		if err == nil {
			rep.UnmarshalWire(am) //nolint:errcheck
		}
		r.mu.Lock(p)
		if r.role != leader || r.d.term != term {
			r.mu.Unlock(p)
			return
		}
		idle := true
		if err == nil {
			switch {
			case rep.Term > r.d.term:
				r.stepDown(p, rep.Term)
				r.mu.Unlock(p)
				return
			case rep.Success:
				r.nextIndex[peer] = ni + len(args.Entries)
				if m := ni + len(args.Entries) - 1; m > r.matchIndex[peer] {
					r.matchIndex[peer] = m
					r.advanceCommit(p)
				}
			default:
				ci := rep.ConflictIndex
				if ci < 1 {
					ci = 1
				}
				r.nextIndex[peer] = ci
				idle = false // retry immediately
			}
		}
		if idle && r.lastLogIndex() >= r.nextIndex[peer] {
			idle = false
		}
		if idle {
			r.replWake.WaitTimeout(p, heartbeatInterval)
		}
		r.mu.Unlock(p)
	}
}

// advanceCommit applies the Raft commit rule. Caller holds mu.
func (r *Replica) advanceCommit(p *simnet.Proc) {
	for n := r.lastLogIndex(); n > r.commitIndex; n-- {
		if r.d.log[n].Term != r.d.term {
			continue // only current-term entries commit by counting
		}
		count := 0
		for _, id := range r.cluster.ids {
			if r.matchIndex[id] >= n {
				count++
			}
		}
		if count > len(r.cluster.ids)/2 {
			r.commitIndex = n
			r.applyCond.Broadcast(p)
			break
		}
	}
}

// applyLoop applies committed entries in order on this replica. The
// per-command CPU cost is charged with mu released — the apply PROC is the
// serial resource (as in a real coordination service's single apply thread),
// so a busy apply stage delays proposers waiting on results but never blocks
// the replicators' heartbeat path on the mutex.
func (r *Replica) applyLoop(p *simnet.Proc) {
	for {
		r.mu.Lock(p)
		for r.lastApplied >= r.commitIndex {
			r.applyCond.Wait(p)
		}
		end := r.commitIndex
		if cpu := r.cluster.cfg.ApplyCPU; cpu > 0 {
			r.mu.Unlock(p)
			p.Sleep(time.Duration(end-r.lastApplied) * cpu)
			r.mu.Lock(p)
		}
		for r.lastApplied < end {
			r.lastApplied++
			e := r.d.log[r.lastApplied]
			if e.Cmd.Code != codeNop {
				res := r.sm.Apply(e.Cmd)
				if r.role == leader {
					if r.applyResults == nil {
						r.applyResults = make(map[int]wire.Msg)
					}
					r.applyResults[r.lastApplied] = res
				}
			}
			// Wake exactly the proposer parked on this entry, if any.
			if w, ok := r.applyWaiters[r.lastApplied]; ok {
				w.Signal(p)
			}
		}
		r.mu.Unlock(p)
	}
}

// IsLeader reports whether this replica currently believes it leads.
func (r *Replica) IsLeader() bool { return r.role == leader }

// Term returns the replica's current term (for tests).
func (r *Replica) Term() int { return r.d.term }

// CommitIndex returns the replica's commit index (for tests).
func (r *Replica) CommitIndex() int { return r.commitIndex }

// SM returns the replica's state machine (for tests and local reads that
// tolerate staleness).
func (r *Replica) SM() StateMachine { return r.sm }
