// Package controller implements NCL's fault-tolerant controller (§4.3,
// §4.7). The paper builds it on a ZooKeeper ensemble; this implementation
// provides the same facilities — a hierarchical key space with versioned
// compare-and-set, ephemeral nodes bound to client sessions, and a
// single-instance lock per application — as a state machine replicated by
// the internal/raft package across three controller nodes.
//
// Directory layout mirrors §4.7:
//
//	/peers/<name>          -> PeerInfo   (ephemeral: registered log peers)
//	/apps/<app>/<file>     -> FileEntry  (the ap-map: peers + epoch per ncl file)
//	/servers/<app>         -> ServerInfo (ephemeral: single-instance lock)
//
// Two deviations from stock ZooKeeper, documented in DESIGN.md, both keyed
// on a fencing token (the application incarnation). First, ephemeral creates
// carry it: a recovering instance with a higher token takes over the
// /servers znode immediately instead of waiting out the dead session,
// keeping recovery at the paper's sub-second scale while preserving the
// only-one-instance guarantee (two instances with the same token still race,
// and exactly one wins). Second, the ap-map is fenced: an application's
// session start lists its /apps/<app>/ directory — every entry's value and
// version — in the same proposal and raises that directory's fence to the
// session's token, and a create, set or delete there carrying a lower token
// answers ErrFenced. From that commit on, only the listing instance (or a
// newer one, which fences it in turn) writes the directory, so the listing
// stays exact until the instance writes it itself.
package controller

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"splitft/internal/model"
	"splitft/internal/raft"
	"splitft/internal/simnet"
	"splitft/internal/wire"
)

// Wire codes for the controller's commands, results and znode values
// (0x30–0x3f range, see internal/wire). Commands travel unwrapped through
// the Raft log; any of these codes is outside raft's own range and hence
// treated as a proposal by the replicas.
const (
	codeNewSession wire.Code = 0x30
	codeKeepAlive  wire.Code = 0x31
	codeExpire     wire.Code = 0x32
	codeCreate     wire.Code = 0x33
	codeSet        wire.Code = 0x34
	codeDelete     wire.Code = 0x35
	codeGet        wire.Code = 0x36
	codeList       wire.Code = 0x37
	codePeerInfo   wire.Code = 0x3b
	codeFileEntry  wire.Code = 0x3c
	codeServerInfo wire.Code = 0x3d
	codeResult     wire.Code = 0x3e
)

// PeerInfo is the value stored at /peers/<name>.
type PeerInfo struct {
	Name     string
	Addr     string // RPC address of the peer daemon
	Domain   string // failure domain (rack/zone); "" when not configured
	AvailMem int64
}

// MarshalWire encodes the registration as a flat message.
func (i PeerInfo) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codePeerInfo, S: [3]string{i.Name, i.Addr, i.Domain}}
	m.SetInt(0, i.AvailMem)
	return m
}

// UnmarshalWire decodes a codePeerInfo message.
func (i *PeerInfo) UnmarshalWire(m wire.Msg) error {
	i.Name, i.Addr, i.Domain, i.AvailMem = m.S[0], m.S[1], m.S[2], m.Int(0)
	return nil
}

// FileEntry is the ap-map value stored at /apps/<app>/<file>.
type FileEntry struct {
	Peers      []string
	Epoch      int64
	RegionSize int64
	// AppendOnly records that the file only ever grows, enabling the
	// tail-shipping catch-up optimization during recovery (§4.5.1).
	AppendOnly bool
	// Policy is the replication policy spec string the file was written
	// under (ncl.ParsePolicy); "" means mirror from before the field existed.
	Policy string
	// Capacity is the log's nominal capacity in bytes. RegionSize is the
	// per-peer region (policy-dependent: larger than Capacity for mirror,
	// smaller for ec fragments); 0 falls back to RegionSize-derived sizing.
	Capacity int64
	// Fencing is the incarnation of the writer: the application instance
	// whose ncl-lib published this membership.
	Fencing int64
	// Recycled names the released file whose regions the members were set
	// up over, on an entry created beside those set-ups; "" once the
	// membership is known set up (DESIGN.md §14).
	Recycled string
}

// MarshalWire encodes the ap-map entry as a flat message. The four scalar
// slots are taken, so the writer's fencing token shares slot 2 with the
// append-only flag, in its upper bits.
func (e FileEntry) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeFileEntry, Strs: e.Peers, S: [3]string{e.Policy, e.Recycled}}
	m.SetInt(0, e.Epoch)
	m.SetInt(1, e.RegionSize)
	m.SetBool(2, e.AppendOnly)
	m.U[2] |= uint64(e.Fencing) << 1
	m.SetInt(3, e.Capacity)
	return m
}

// UnmarshalWire decodes a codeFileEntry message.
func (e *FileEntry) UnmarshalWire(m wire.Msg) error {
	e.Peers = m.Strs
	e.Policy, e.Recycled = m.S[0], m.S[1]
	e.Epoch = m.Int(0)
	e.RegionSize = m.Int(1)
	e.AppendOnly = m.U[2]&1 != 0
	e.Fencing = int64(m.U[2] >> 1)
	e.Capacity = m.Int(3)
	return nil
}

// ServerInfo is the value stored at /servers/<app>.
type ServerInfo struct {
	Node    string
	Fencing int64
}

// MarshalWire encodes the lock owner as a flat message.
func (s ServerInfo) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeServerInfo, S: [3]string{s.Node}}
	m.SetInt(0, s.Fencing)
	return m
}

// UnmarshalWire decodes a codeServerInfo message.
func (s *ServerInfo) UnmarshalWire(m wire.Msg) error {
	s.Node, s.Fencing = m.S[0], m.Int(0)
	return nil
}

// Errors.
var (
	ErrExists     = errors.New("controller: node exists")
	ErrNotFound   = errors.New("controller: node not found")
	ErrBadVersion = errors.New("controller: version mismatch")
	ErrSession    = errors.New("controller: session expired or unknown")
	ErrFenced     = errors.New("controller: fenced by a newer instance")
)

// ---- Replicated state machine ----

type znode struct {
	data      wire.Msg
	version   int64
	ephemeral bool
	session   string
	fencing   int64
}

type session struct {
	lastSeen time.Duration
	timeout  time.Duration
}

type tree struct {
	nodes    map[string]*znode
	sessions map[string]*session
	// fences holds, per directory a session listed, the highest fencing
	// token such a session carried: a write there carrying a lower one is
	// ErrFenced. It only rises.
	fences map[string]int64
}

func newTree() *tree {
	return &tree{nodes: make(map[string]*znode), sessions: make(map[string]*session), fences: make(map[string]int64)}
}

// fenced reports whether a write to path carrying token fencing comes from an
// instance older than the newest whose session listed a directory holding
// path — at any depth: an ncl file's name may itself contain slashes.
func (t *tree) fenced(path string, fencing int64) bool {
	for dir, fence := range t.fences {
		if fencing < fence && strings.HasPrefix(path, dir) {
			return true
		}
	}
	return false
}

// list returns the nodes under prefix, sorted by path.
func (t *tree) list(prefix string) opResult {
	var r opResult
	for p := range t.nodes {
		if strings.HasPrefix(p, prefix) {
			r.Paths = append(r.Paths, p)
		}
	}
	sort.Strings(r.Paths)
	r.Datas = make([]wire.Msg, len(r.Paths))
	for i, p := range r.Paths {
		r.Datas[i] = t.nodes[p].data
	}
	return r
}

// Commands. Every mutation is versioned or idempotent so client retries
// after ambiguous failures are safe. Each command is a Go struct with a flat
// wire encoding; the struct form exists only at the edges (client encode,
// Apply decode) — the Raft log and RPC plane carry wire.Msg values.
type cmdNewSession struct {
	Session string
	At      time.Duration
	Timeout time.Duration
	// Dir, when set, is a directory whose nodes the reply lists, sorted, with
	// their values and versions — the application's ap-map at session start —
	// and whose fence the session raises to Fencing.
	Dir     string
	Fencing int64
}

func (c cmdNewSession) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeNewSession, S: [3]string{c.Session, c.Dir}}
	m.SetInt(0, int64(c.At))
	m.SetInt(1, int64(c.Timeout))
	m.SetInt(2, c.Fencing)
	return m
}

func (c *cmdNewSession) UnmarshalWire(m wire.Msg) error {
	c.Session, c.Dir = m.S[0], m.S[1]
	c.At = time.Duration(m.Int(0))
	c.Timeout = time.Duration(m.Int(1))
	c.Fencing = m.Int(2)
	return nil
}

type cmdKeepAlive struct {
	Session string
	At      time.Duration
}

func (c cmdKeepAlive) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeKeepAlive, S: [3]string{c.Session}}
	m.SetInt(0, int64(c.At))
	return m
}

func (c *cmdKeepAlive) UnmarshalWire(m wire.Msg) error {
	c.Session = m.S[0]
	c.At = time.Duration(m.Int(0))
	return nil
}

type cmdExpire struct {
	Session string
	AsOf    time.Duration
}

func (c cmdExpire) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeExpire, S: [3]string{c.Session}}
	m.SetInt(0, int64(c.AsOf))
	return m
}

func (c *cmdExpire) UnmarshalWire(m wire.Msg) error {
	c.Session = m.S[0]
	c.AsOf = time.Duration(m.Int(0))
	return nil
}

type cmdCreate struct {
	Path      string
	Data      wire.Msg
	Ephemeral bool
	Session   string
	Fencing   int64
	Takeover  bool // allow replacing an owner with a strictly lower fencing token
}

func (c cmdCreate) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeCreate, S: [3]string{c.Path, c.Session}, Sub: []wire.Msg{c.Data}}
	m.SetInt(0, c.Fencing)
	m.SetBool(1, c.Ephemeral)
	m.SetBool(2, c.Takeover)
	return m
}

func (c *cmdCreate) UnmarshalWire(m wire.Msg) error {
	c.Path, c.Session = m.S[0], m.S[1]
	c.Data = m.Sub[0]
	c.Fencing = m.Int(0)
	c.Ephemeral = m.Bool(1)
	c.Takeover = m.Bool(2)
	return nil
}

type cmdSet struct {
	Path    string
	Data    wire.Msg
	Version int64 // -1: unconditional
	Fencing int64
}

func (c cmdSet) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeSet, S: [3]string{c.Path}, Sub: []wire.Msg{c.Data}}
	m.SetInt(0, c.Version)
	m.SetInt(1, c.Fencing)
	return m
}

func (c *cmdSet) UnmarshalWire(m wire.Msg) error {
	c.Path = m.S[0]
	c.Data = m.Sub[0]
	c.Version = m.Int(0)
	c.Fencing = m.Int(1)
	return nil
}

type cmdDelete struct {
	Path    string
	Version int64 // -1: unconditional
	Fencing int64
}

func (c cmdDelete) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeDelete, S: [3]string{c.Path}}
	m.SetInt(0, c.Version)
	m.SetInt(1, c.Fencing)
	return m
}

func (c *cmdDelete) UnmarshalWire(m wire.Msg) error {
	c.Path = m.S[0]
	c.Version = m.Int(0)
	c.Fencing = m.Int(1)
	return nil
}

type cmdGet struct{ Path string }

func (c cmdGet) MarshalWire() wire.Msg {
	return wire.Msg{Code: codeGet, S: [3]string{c.Path}}
}

type cmdList struct{ Prefix string }

func (c cmdList) MarshalWire() wire.Msg {
	return wire.Msg{Code: codeList, S: [3]string{c.Prefix}}
}

// opResult is the decoded view of a codeResult message, the reply to every
// command. Found results carry the znode value in Sub[0]; List results carry
// paths in Strs and the matching values in Sub, and a session's listing the
// matching versions too, little-endian in B.
type opResult struct {
	Err      error
	Version  int64
	Found    bool
	Data     wire.Msg
	Paths    []string
	Datas    []wire.Msg
	Versions []int64
}

func (r opResult) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeResult, Err: r.Err, Strs: r.Paths, Sub: r.Datas}
	m.SetInt(0, r.Version)
	m.SetBool(1, r.Found)
	if r.Found {
		m.Sub = []wire.Msg{r.Data}
	}
	for _, v := range r.Versions {
		m.B = binary.LittleEndian.AppendUint64(m.B, uint64(v))
	}
	return m
}

func (r *opResult) UnmarshalWire(m wire.Msg) error {
	r.Err = m.Err
	r.Version = m.Int(0)
	r.Found = m.Bool(1)
	r.Paths = m.Strs
	if r.Found {
		if len(m.Sub) == 1 {
			r.Data = m.Sub[0]
		}
	} else {
		r.Datas = m.Sub
	}
	for b := m.B; len(b) >= 8; b = b[8:] {
		r.Versions = append(r.Versions, int64(binary.LittleEndian.Uint64(b)))
	}
	return nil
}

// Apply implements raft.StateMachine. It must not block.
func (t *tree) Apply(cmd wire.Msg) wire.Msg {
	return t.apply(cmd).MarshalWire()
}

func (t *tree) apply(cmd wire.Msg) opResult {
	switch cmd.Code {
	case codeNewSession:
		var c cmdNewSession
		c.UnmarshalWire(cmd) //nolint:errcheck
		// Re-creating a session (same name, new fencing) replaces it and
		// drops the old incarnation's ephemerals.
		if _, ok := t.sessions[c.Session]; ok {
			t.dropEphemerals(c.Session)
		}
		t.sessions[c.Session] = &session{lastSeen: c.At, timeout: c.Timeout}
		if c.Dir == "" {
			return opResult{}
		}
		t.fences[c.Dir] = max(t.fences[c.Dir], c.Fencing)
		r := t.list(c.Dir)
		r.Versions = make([]int64, len(r.Paths))
		for i, p := range r.Paths {
			r.Versions[i] = t.nodes[p].version
		}
		return r
	case codeKeepAlive:
		var c cmdKeepAlive
		c.UnmarshalWire(cmd) //nolint:errcheck
		s, ok := t.sessions[c.Session]
		if !ok {
			return opResult{Err: ErrSession}
		}
		if c.At > s.lastSeen {
			s.lastSeen = c.At
		}
		return opResult{}
	case codeExpire:
		var c cmdExpire
		c.UnmarshalWire(cmd) //nolint:errcheck
		s, ok := t.sessions[c.Session]
		if !ok {
			return opResult{}
		}
		if c.AsOf-s.lastSeen < s.timeout {
			return opResult{} // heartbeat arrived in the meantime
		}
		delete(t.sessions, c.Session)
		t.dropEphemerals(c.Session)
		return opResult{}
	case codeCreate:
		var c cmdCreate
		c.UnmarshalWire(cmd) //nolint:errcheck
		if t.fenced(c.Path, c.Fencing) {
			return opResult{Err: ErrFenced}
		}
		if c.Ephemeral {
			if _, ok := t.sessions[c.Session]; !ok {
				return opResult{Err: ErrSession}
			}
		}
		if old, ok := t.nodes[c.Path]; ok {
			// A create proposal may be re-submitted after an ambiguous
			// timeout; if the node is an ephemeral this same session already
			// owns, the first submission won — report success (with the
			// existing version) instead of self-fencing the retrier.
			if c.Ephemeral && old.ephemeral && old.session == c.Session && old.fencing == c.Fencing {
				return opResult{Version: old.version}
			}
			if !(c.Takeover && old.ephemeral && c.Fencing > old.fencing) {
				return opResult{Err: ErrExists}
			}
		}
		t.nodes[c.Path] = &znode{data: c.Data, version: 1, ephemeral: c.Ephemeral,
			session: c.Session, fencing: c.Fencing}
		return opResult{Version: 1}
	case codeSet:
		var c cmdSet
		c.UnmarshalWire(cmd) //nolint:errcheck
		if t.fenced(c.Path, c.Fencing) {
			return opResult{Err: ErrFenced}
		}
		n, ok := t.nodes[c.Path]
		if !ok {
			return opResult{Err: ErrNotFound}
		}
		if c.Version >= 0 && n.version != c.Version {
			return opResult{Err: ErrBadVersion, Version: n.version}
		}
		n.data = c.Data
		n.version++
		return opResult{Version: n.version}
	case codeDelete:
		var c cmdDelete
		c.UnmarshalWire(cmd) //nolint:errcheck
		if t.fenced(c.Path, c.Fencing) {
			return opResult{Err: ErrFenced}
		}
		n, ok := t.nodes[c.Path]
		if !ok {
			return opResult{Err: ErrNotFound}
		}
		if c.Version >= 0 && n.version != c.Version {
			return opResult{Err: ErrBadVersion, Version: n.version}
		}
		delete(t.nodes, c.Path)
		return opResult{}
	case codeGet:
		n, ok := t.nodes[cmd.S[0]]
		if !ok {
			return opResult{Found: false}
		}
		return opResult{Found: true, Data: n.data, Version: n.version}
	case codeList:
		return t.list(cmd.S[0])
	default:
		return opResult{Err: fmt.Errorf("controller: unknown command %#x", uint16(cmd.Code))}
	}
}

func (t *tree) dropEphemerals(sess string) {
	for p, n := range t.nodes {
		if n.ephemeral && n.session == sess {
			delete(t.nodes, p)
		}
	}
}

// ---- Service ----

// Config holds controller timing. The constants live in internal/model
// (the unified hardware cost-model layer); this alias keeps the controller
// API self-contained. Its Raft field aliases raft.Config the same way.
type Config = model.ControllerConfig

// DefaultConfig returns the baseline profile's controller timing: sessions
// expire ~600 ms after a client dies.
func DefaultConfig() Config {
	return model.Baseline().Controller
}

// A client renews its session every keepAlive, four times per session
// timeout, and the leader scans for expired sessions every expiryScan, so a
// dead client's ephemerals go at most a third of a timeout after its
// session expires.
func keepAlive(cfg Config) time.Duration  { return cfg.SessionTimeout / 4 }
func expiryScan(cfg Config) time.Duration { return cfg.SessionTimeout / 3 }

// Service is a running controller ensemble: one Raft group holding the
// whole znode tree, the paper's ZooKeeper-equivalent layout.
type Service struct {
	cfg      Config
	cluster  *raft.Cluster
	nodes    []*simnet.Node
	replicas map[string]*raft.Replica // node id -> its running replica
}

// Start boots a controller ensemble across the given nodes (typically 3).
func Start(s *simnet.Sim, nodes []*simnet.Node, cfg Config) *Service {
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.Name()
	}
	svc := &Service{cfg: cfg, nodes: nodes, replicas: make(map[string]*raft.Replica)}
	svc.cluster = raft.New(s, "ncl-controller", cfg.Raft, ids, func() raft.StateMachine { return newTree() })
	for i, n := range nodes {
		svc.startNode(n, ids[i])
	}
	return svc
}

func (svc *Service) startNode(n *simnet.Node, id string) {
	rep := svc.cluster.StartNode(n, id)
	svc.replicas[id] = rep
	// Session-expiry monitor: while this node leads, propose expirations for
	// sessions whose heartbeats stopped. The state machine re-checks at apply
	// time, so a stale monitor can never expire a live session. Stale names
	// are sorted, keeping the proposal stream deterministic.
	n.Go("ctrl-expiry:"+id, func(p *simnet.Proc) {
		var rc *raft.Client
		var stale []string
		for {
			p.Sleep(expiryScan(svc.cfg))
			if !rep.IsLeader() {
				continue
			}
			t := rep.SM().(*tree)
			stale = stale[:0]
			for name, sess := range t.sessions {
				if p.Now()-sess.lastSeen >= sess.timeout {
					stale = append(stale, name)
				}
			}
			if len(stale) == 0 {
				continue
			}
			sort.Strings(stale)
			if rc == nil {
				rc = raft.NewClient(svc.cluster, n)
			}
			for _, name := range stale {
				rc.Propose(p, cmdExpire{Session: name, AsOf: p.Now()}.MarshalWire()) //nolint:errcheck
			}
		}
	})
}

// RestartNode re-joins a restarted controller node to the ensemble.
func (svc *Service) RestartNode(n *simnet.Node) {
	svc.startNode(n, n.Name())
}

// Nodes returns the ensemble's nodes in start order.
func (svc *Service) Nodes() []*simnet.Node { return svc.nodes }

// LeaderNode returns the node whose replica currently leads the group, or
// nil when no replica believes it leads (mid-election). Fault injectors use
// it to aim partitions at the node whose loss actually hurts.
func (svc *Service) LeaderNode() *simnet.Node {
	for _, n := range svc.nodes {
		if svc.replicas[n.Name()].IsLeader() {
			return n
		}
	}
	return nil
}

// Config returns the service timing configuration.
func (svc *Service) Config() Config { return svc.cfg }
