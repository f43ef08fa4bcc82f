// Package ncl implements near-compute logs (NCL), the paper's core
// abstraction (§4): it makes an application's small synchronous log writes
// fault-tolerant by replicating them to the memory of 2f+1 log peers with
// 1-sided RDMA writes, acknowledging once a majority holds every write in
// application order.
//
// The package is the "ncl-lib" of Fig 2/3. Its operations map one-to-one to
// the paper's: Open (initialize), Record, Release, and Recover, plus the
// failure paths of §4.5 — peer replacement with catch-up before the ap-map
// update, application recovery with a max-sequence-number quorum read and an
// atomic region-switch catch-up, epoch-stamped allocations so peers can
// garbage-collect leaked space, and graceful handling of peer memory
// revocation.
//
// Recovery is a stream with one barrier (recover.go, DESIGN.md §16): Recover
// returns once the log's length and sequence number are fixed, ReadAt blocks
// until the bytes it was asked for have arrived, and the survivors are caught
// up behind the application — which may read recovered bytes at once but is
// promised that they survive f further failures only once Sync, Record or
// Release has returned.
//
// Region layout: every log region starts with a 16-byte header — the
// sequence number and the byte length of the log — followed by the log's
// physical content. Each application write becomes two RDMA writes per peer
// (data, then header), ordered by the QP's send queue, so a peer whose
// header shows sequence s is guaranteed to hold every write up to s (§4.4).
//
// That description covers the default mirror policy. How a log's bytes are
// placed, replicated, and recovered is pluggable (policy.go):
// Config.Replication selects mirror, Reed-Solomon striping ("ec:k,m"), or one-RTT quorum
// journals ("quorum") — see ReplicationPolicy.
package ncl

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"splitft/internal/controller"
	"splitft/internal/model"
	"splitft/internal/peer"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// HeaderSize is the per-region metadata prefix: sequence number (8 bytes)
// and log length (8 bytes), both written as one header RDMA write ordered
// after the data write.
const HeaderSize = 16

// Config is ncl-lib's configuration: the replication policy as a spec string
// (parsed once, by NewLib), the default region capacity, and the calibrated
// cost constants of the hardware model — model.NCLConfig itself, as
// rdma.Params, dfs.Params, raft.Config, controller.Config and peer.Config are
// their internal/model types. A profile's NCL field is one. Zero Replication
// and DefaultRegionSize mean the paper's setup: mirror with f=1 over 64 MiB
// regions.
type Config = model.NCLConfig

// DefaultConfig returns the baseline profile's configuration, used
// throughout the evaluation (mirror with f=1, so three log peers).
func DefaultConfig() Config { return model.Baseline().NCL }

// Errors.
var (
	ErrReleased    = errors.New("ncl: log released")
	ErrRegionFull  = errors.New("ncl: write beyond region capacity")
	ErrNotFound    = errors.New("ncl: no such ncl file")
	ErrUnavailable = errors.New("ncl: fewer than f+1 peers available")
	ErrNoPeers     = errors.New("ncl: could not allocate enough log peers")
)

// Lib is one application's ncl-lib instance. It owns the RDMA NIC
// connection state and the controller session for the application.
type Lib struct {
	sim     *simnet.Sim
	node    *simnet.Node
	fabric  *rdma.Fabric
	nic     *rdma.NIC
	ctrl    *controller.Client
	appID   string
	fencing int64 // the application's incarnation, stamped on every ap-map entry it writes
	cfg     Config
	policy  PolicySpec // cfg.Replication, parsed

	logs map[string]*Log

	// known is the application's ap-map directory as this lib has seen it:
	// the names listed when its session started, plus the names it created
	// or found since, minus those it deleted. It only orders an O_CREATE
	// open's calls (Known); whether a file exists is decided by the ap-map.
	known map[string]bool

	// suspects are peers that recently failed a data-path operation; they
	// are excluded from allocation until the cooldown passes, since the
	// controller's registry only drops them after session expiry.
	suspects map[string]time.Duration

	// reg is the cached controller peer list (see alloc.go).
	reg peerRegistry

	// spare is the last released log's group, parked for the next open of
	// its shape (spare.go); nil when there is none.
	spare *spareGroup
}

// suspectCooldown is how long a peer that failed a data-path operation is
// excluded from new allocations.
const suspectCooldown = 2 * time.Second

func (l *Lib) markSuspect(name string, now time.Duration) {
	l.suspects[name] = now + suspectCooldown
}

func (l *Lib) suspectNames(now time.Duration) []string {
	var out []string
	for name, until := range l.suspects {
		if now < until {
			out = append(out, name)
		} else {
			delete(l.suspects, name)
		}
	}
	sort.Strings(out)
	return out
}

// NewLib initializes ncl-lib for application appID running on node. fencing
// is the application's incarnation (bump it on every restart). A
// cfg.Replication that does not parse is an error.
func NewLib(p *simnet.Proc, svc *controller.Service, fabric *rdma.Fabric, node *simnet.Node, appID string, fencing int64, cfg Config) (*Lib, error) {
	policy, err := ParsePolicy(cfg.Replication)
	if err != nil {
		return nil, err
	}
	if cfg.DefaultRegionSize == 0 {
		cfg.DefaultRegionSize = 64 << 20
	}
	l := &Lib{
		sim:      node.Sim(),
		node:     node,
		fabric:   fabric,
		nic:      fabric.AttachNIC(node),
		appID:    appID,
		fencing:  fencing,
		cfg:      cfg,
		policy:   policy,
		logs:     make(map[string]*Log),
		known:    make(map[string]bool),
		suspects: make(map[string]time.Duration),
	}
	l.ctrl = controller.NewClient(svc, node, appID, fencing)
	names, err := l.ctrl.StartSession(p, appID)
	if err != nil {
		return nil, fmt.Errorf("ncl: controller session: %w", err)
	}
	for _, name := range names {
		l.known[name] = true
	}
	return l, nil
}

// Known reports whether name may have an ap-map entry as far as this lib has
// seen: listed when its session started, or created or found since and not
// deleted. A name it does not know can still exist — another instance of the
// application may have created it after this session started — so false
// only says which call to try first: Open, whose conditional create fails
// on an existing entry, rather than Recover.
func (l *Lib) Known(name string) bool { return l.known[name] }

// AcquireInstanceLock claims the application's single-instance znode. Call
// once at start-up; the paper requires that only one instance of the
// application accesses its ncl files at a time (§4.7).
func (l *Lib) AcquireInstanceLock(p *simnet.Proc) error {
	return l.ctrl.AcquireServerLock(p, l.appID)
}

// ListFiles returns the ncl files recorded for this application in the
// ap-map — what a recovering instance must restore.
func (l *Lib) ListFiles(p *simnet.Proc) ([]string, error) {
	entries, err := l.ctrl.ListAppFiles(p, l.appID)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// peerConn is the client-side state for one log peer of one log.
type peerConn struct {
	name string
	qp   *rdma.QP
	rkey uint64
	// slot is this peer's index in the membership — for ec, the fragment
	// index (which data/parity cell its region holds).
	slot int
	// domain is the peer's failure domain, used by pooled placement spread.
	domain string
	// id is this connection's index in Log.conns, packed into RDMA
	// completion contexts so the poller can route without boxing.
	id uint64
	// completedSeq: every record with seq <= completedSeq (data and header)
	// is durably in this peer's region. Monotonic because the QP completes
	// WRs in post order.
	completedSeq uint64
	failed       bool
	// active: counted toward the ack majority. A replacement peer becomes
	// active only after the ap-map names it (§4.5.2).
	active bool
}

// Log is an open ncl file.
type Log struct {
	lib      *Lib
	name     string
	capacity int64

	// spec is the replication policy the log was created under, place its
	// group shape for this capacity, policy the per-log strategy instance.
	spec   PolicySpec
	place  Placement
	policy ReplicationPolicy

	buf    []byte // local buffer: authoritative file content
	length int64
	seq    uint64

	epoch     int64
	apVersion int64

	// appendOnly marks logs that only grow (RocksDB WALs, Redis AOFs);
	// recovery may then catch lagging peers up by shipping the missing
	// tail bytes into their existing regions instead of copying the whole
	// region through staging (the §4.5.1 optimization). Circular logs
	// (SQLite WALs) must leave this false.
	appendOnly bool

	peers []*peerConn
	cq    *rdma.CQ

	// conns is the append-only registry of every peerConn this log ever
	// connected (including replaced ones); completion contexts carry an
	// index into it. peers holds the current membership and is reordered
	// or rewritten on replacement, so its indexes are not stable.
	conns []*peerConn
	// bulks routes catch-up/read completions to their waiters by bulk id.
	// A waiter that bails early deletes its entry; stragglers are dropped.
	bulks    map[uint64]*simnet.Chan[error]
	nextBulk uint64

	mu       simnet.Mutex
	ackCond  *simnet.Cond
	repairCh *simnet.Chan[struct{}]

	released bool

	// rec is the log's streamed recovery (recover.go): set by Recover,
	// cleared when its background phase has succeeded, nil on an opened log.
	rec *recovery

	// Stats. Latency breakdowns (Fig 11b recovery phases, Table 3
	// replacement steps) are trace spans, not struct fields: attach a
	// trace.Collector to the Sim and query the "ncl" layer's "recover.*"
	// and "replace.*" ops.
	Records      uint64
	Replacements int
}

// RDMA completion contexts are packed into the 64-bit Ctx word rather than
// boxed, keeping the record hot path allocation-free:
//
//	record WRs: bit 0 clear, bit 1 = header write,
//	            bits 2..17 = conn id, bits 18..63 = sequence number
//	bulk WRs:   bit 0 set, bits 1..63 = bulk waiter id
const (
	ctxBulkFlag   = 1 << 0
	ctxHeaderFlag = 1 << 1
	ctxConnShift  = 2
	ctxConnMask   = (1 << 16) - 1
	ctxSeqShift   = 18
)

func recCtx(pc *peerConn, seq uint64, header bool) uint64 {
	ctx := pc.id<<ctxConnShift | seq<<ctxSeqShift
	if header {
		ctx |= ctxHeaderFlag
	}
	return ctx
}

// registerConn assigns pc a stable id and records it in the conn registry.
func (lg *Log) registerConn(pc *peerConn) {
	pc.id = uint64(len(lg.conns))
	lg.conns = append(lg.conns, pc)
}

// newBulkWaiter allocates a bulk id and its completion channel. The caller
// must delete the id from lg.bulks when done waiting.
func (lg *Log) newBulkWaiter() (uint64, *simnet.Chan[error]) {
	lg.nextBulk++
	id := lg.nextBulk
	done := simnet.NewChan[error](lg.lib.sim)
	lg.bulks[id] = done
	return id, done
}

func bulkCtx(id uint64) uint64 { return ctxBulkFlag | id<<1 }

// awaitBulk waits for the n completions of the WRs posted under one bulk id
// and returns the first error; a channel closed under the wait means the log
// was released.
func awaitBulk(p *simnet.Proc, done *simnet.Chan[error], n int) error {
	for i := 0; i < n; i++ {
		err, ok := done.Recv(p)
		if !ok {
			return ErrReleased
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// newLog assembles a Log — the only place one is built. Open and Recover
// differ in where the policy, epoch and ap-map version come from, nothing
// else.
func (l *Lib) newLog(name string, spec PolicySpec, capacity int64, appendOnly bool, epoch, apVersion int64) *Log {
	lg := &Log{
		lib:        l,
		name:       name,
		capacity:   capacity,
		spec:       spec,
		buf:        make([]byte, HeaderSize+capacity),
		epoch:      epoch,
		apVersion:  apVersion,
		appendOnly: appendOnly,
		cq:         rdma.NewCQ(l.sim),
		repairCh:   simnet.NewChan[struct{}](l.sim),
		bulks:      make(map[uint64]*simnet.Chan[error]),
	}
	lg.ackCond = simnet.NewCond(&lg.mu)
	lg.policy = newPolicy(spec, capacity)
	lg.place = spec.Place(capacity)
	return lg
}

// Open creates a new ncl file of the given capacity: it obtains the
// policy's peer group from the controller (2f+1 for mirror/quorum, k+m for
// ec) — or takes the group a released log of the same shape left parked —
// sets up a memory region on each, and records the allocation — peers,
// epoch, and policy — in the ap-map (§4.3, Fig 4). The returned Log is
// empty. Capacity 0 means the configured default (Config.DefaultRegionSize).
// appendOnly declares that the file is never overwritten in place, which
// lets recovery catch lagging peers up by shipping only the missing tail
// (§4.5.1).
func (l *Lib) Open(p *simnet.Proc, name string, capacity int64, appendOnly bool) (*Log, error) {
	if capacity == 0 {
		capacity = l.cfg.DefaultRegionSize
	}
	sp := p.StartSpan("ncl", "open", trace.Str("file", name), trace.Int("bytes", capacity))
	defer p.EndSpan(sp)
	lg := l.newLog(name, l.policy, capacity, appendOnly, 1, 0)
	lg.peers = make([]*peerConn, lg.place.Slots)
	pcs, err := l.allocate(p, lg, lg.vacant(p), nil, lg.epoch, false, l.takeSpare(p, lg))
	if err != nil {
		lg.teardown(p)
		return nil, err
	}
	lg.activate(p, false, pcs...)
	// Step 4b: record the allocation in the ap-map.
	ver, err := lg.publish(p, lg.fileEntry(lg.epoch))
	if err != nil {
		lg.teardown(p)
		return nil, fmt.Errorf("ncl: ap-map update: %w", err)
	}
	lg.apVersion = ver
	l.logs[name] = lg
	l.known[name] = true
	lg.start(p)
	return lg, nil
}

// teardown stops everything a log runs on the application node — the one
// place that does, for a release, a failed Open and a failed Recover alike:
// every QP it ever connected is closed so the engine procs exit, the CQ and
// the repair channel are closed so the poller and the repair proc do, and the
// lib forgets the log, so that a retry starts clean. Without this, every
// failed open or recovery under a saturated controller or beyond the failure
// budget strands its procs and its buffer, and a retrying client turns the
// fault into an unbounded pile-up.
//
// The allocated regions are deliberately NOT released here. A release RPC
// fired during an abort can outlive its timeout in a busy peer's queue, and a
// retried open of the same file — which setup idempotency hands the very
// same regions — would then have its live region swept by the stale
// release. Orphaned regions (the retry chose other peers, or never came)
// are reclaimed by the peers' space-leak GC once the grace period passes.
func (lg *Log) teardown(p *simnet.Proc) {
	for _, pc := range lg.conns {
		pc.qp.Close(p)
	}
	if lg.lib.logs[lg.name] == lg {
		delete(lg.lib.logs, lg.name)
	}
	lg.cq.Close(p)
	lg.repairCh.Close(p)
}

// regionSize is the per-peer region size the policy spec derived — what
// setup requests, placement filters, and free-memory accounting all use.
func (lg *Log) regionSize() int64 { return lg.place.SlotRegion }

func (lg *Log) peerNames() []string {
	names := make([]string, len(lg.peers))
	for i, pc := range lg.peers {
		if pc != nil {
			names[i] = pc.name
		}
	}
	return names
}

// fileEntry builds the ap-map entry for the current membership at the given
// epoch.
func (lg *Log) fileEntry(epoch int64) controller.FileEntry {
	return controller.FileEntry{
		Peers:      lg.peerNames(),
		Epoch:      epoch,
		RegionSize: lg.regionSize(),
		AppendOnly: lg.appendOnly,
		Policy:     lg.spec.String(),
		Capacity:   lg.capacity,
		Fencing:    lg.lib.fencing,
	}
}

// publish writes entry — lg's membership under a new epoch — into the ap-map
// and returns the entry's new version: the one place the ap-map is written.
// Open creates the entry (no version seen yet); recovery and live replacement
// compare-and-set the version they read. It is one proposal. The proposal may
// have committed even though its reply was lost (a dropped message, a timeout
// on a saturated controller), and the re-submission then fails ErrExists or
// ErrBadVersion for good; so on any error the entry is read back, and if it
// names this membership at this epoch under this lib's fencing token, the
// first submission won. Membership and epoch alone do not say so: another
// instance of the application creating the same name ranks the same peers
// and starts at the same epoch.
func (lg *Log) publish(p *simnet.Proc, entry controller.FileEntry) (int64, error) {
	l := lg.lib
	ver, err := l.ctrl.SetAppFile(p, l.appID, lg.name, entry, lg.apVersion)
	if err != nil {
		got, gver, found, gerr := l.ctrl.GetAppFile(p, l.appID, lg.name)
		if gerr != nil || !found || got.Fencing != entry.Fencing || got.Epoch != entry.Epoch || !slices.Equal(got.Peers, entry.Peers) {
			return 0, err
		}
		ver = gver
	}
	return ver, nil
}

// start spawns the completion poller and the repair proc. Both die with the
// application node.
func (lg *Log) start(p *simnet.Proc) {
	p.GoOn(lg.lib.node, "ncl-poller:"+lg.name, lg.pollLoop)
	p.GoOn(lg.lib.node, "ncl-repair:"+lg.name, lg.repairLoop)
}

// pollLoop drains the shared CQ, advancing per-peer completed sequence
// numbers and routing bulk-transfer completions to their waiters.
func (lg *Log) pollLoop(p *simnet.Proc) {
	for {
		c, ok := lg.cq.Poll(p)
		if !ok {
			return
		}
		ctx := c.Ctx
		if ctx&ctxBulkFlag != 0 {
			if done, ok := lg.bulks[ctx>>1]; ok {
				done.Send(p, c.Err)
			}
			continue
		}
		pc := lg.conns[(ctx>>ctxConnShift)&ctxConnMask]
		seq := ctx >> ctxSeqShift
		lg.mu.Lock(p)
		if c.Err != nil {
			if !pc.failed {
				pc.failed = true
				lg.lib.markSuspect(pc.name, p.Now())
				lg.repairCh.Send(p, struct{}{})
			}
		} else if ctx&ctxHeaderFlag != 0 && seq > pc.completedSeq {
			pc.completedSeq = seq
		}
		lg.ackCond.Broadcast(p)
		lg.mu.Unlock(p)
	}
}

// ackTimeout is how long Record waits without majority progress before it
// kicks the repair path again.
const ackTimeout = 5 * time.Millisecond

// Record replicates one application write at the given file offset (§4.4).
// It assigns the next sequence number, hands the write to the replication
// policy (mirror: data + header WR per active peer; ec: one coded frame per
// slot; quorum: one journal frame per peer), and returns once the policy's
// ack quorum of active peers has completed every record up to and including
// this one.
//
// Record supports overwrites at arbitrary offsets within the region, which
// is how circular logs (SQLite-style, Fig 7ii) are replicated physically
// under mirror; the ec and quorum frame logs accept overwrites too but
// consume frame budget per write (see their policy docs).
func (lg *Log) Record(p *simnet.Proc, off int64, data []byte) error {
	if p.Tracing() {
		sp := p.StartSpan("ncl", "record", trace.Str("file", lg.name), trace.Int("bytes", int64(len(data))))
		defer p.EndSpan(sp)
	}
	if err := lg.Sync(p); err != nil {
		return err
	}
	lg.mu.Lock(p)
	defer lg.mu.Unlock(p)
	if lg.released {
		return ErrReleased
	}
	end := off + int64(len(data))
	if off < 0 || end > lg.capacity {
		return fmt.Errorf("%w: [%d,%d) cap %d", ErrRegionFull, off, end, lg.capacity)
	}
	if lg.appendOnly && off != lg.length {
		return fmt.Errorf("ncl: overwrite at %d on append-only log %s (length %d)", off, lg.name, lg.length)
	}
	prevLength := lg.length
	copy(lg.buf[HeaderSize+off:], data)
	if end > lg.length {
		lg.length = end
	}
	lg.seq++
	seq := lg.seq
	if err := lg.policy.Append(p, lg, off, data); err != nil {
		// Nothing was posted: roll the sequence and length back. The local
		// buffer keeps the bytes, but they were never replicated and the
		// caller sees the failure.
		lg.seq--
		lg.length = prevLength
		return err
	}
	p.Sleep(lg.lib.cfg.RecordCPU)
	lg.Records++
	for lg.ackCount(seq) < lg.place.AckNeed {
		if lg.released {
			return ErrReleased
		}
		if timedOut := lg.ackCond.WaitTimeout(p, ackTimeout); timedOut {
			// No majority progress: make sure repair is running (it may
			// already be replacing failed peers).
			lg.repairCh.Send(p, struct{}{})
		}
	}
	return nil
}

// ackCount returns how many active peers hold every record up to seq.
func (lg *Log) ackCount(seq uint64) int {
	n := 0
	for _, pc := range lg.peers {
		if pc != nil && pc.active && !pc.failed && pc.completedSeq >= seq {
			n++
		}
	}
	return n
}

// Append is Record at the current end of the log.
func (lg *Log) Append(p *simnet.Proc, data []byte) (off int64, err error) {
	off = lg.length
	return off, lg.Record(p, off, data)
}

// Length returns the log's current byte length.
func (lg *Log) Length() int64 { return lg.length }

// Capacity returns the region capacity in bytes.
func (lg *Log) Capacity() int64 { return lg.capacity }

// Seq returns the last assigned sequence number (tests).
func (lg *Log) Seq() uint64 { return lg.seq }

// Epoch returns the log's current allocation epoch (tests).
func (lg *Log) Epoch() int64 { return lg.epoch }

// Policy returns the log's replication policy spec.
func (lg *Log) Policy() PolicySpec { return lg.spec }

// Bytes returns the local buffer content (the file view). It does not wait:
// on a recovered log, call it after Sync.
func (lg *Log) Bytes() []byte { return lg.buf[HeaderSize : HeaderSize+lg.length] }

// RemoteReadAt reads log content directly from a live peer's region with a
// 1-sided RDMA read instead of the local buffer — the "NCL no prefetch"
// variant of Fig 11(a). It exists to show why Recover prefetches. It needs
// regions that hold a plain image of the file; a frame log (coded fragments,
// framed journals) has nothing file-shaped for a raw remote read to return.
func (lg *Log) RemoteReadAt(p *simnet.Proc, buf []byte, off int64) (int, error) {
	if lg.place.FrameLog {
		return 0, fmt.Errorf("ncl: RemoteReadAt needs plain-image regions (log %s uses %s)",
			lg.name, lg.spec)
	}
	if err := lg.Sync(p); err != nil {
		return 0, err
	}
	if off >= lg.length {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > lg.length {
		n = lg.length - off
	}
	var target *peerConn
	for _, pc := range lg.peers {
		if pc != nil && pc.active && !pc.failed {
			target = pc
			break
		}
	}
	if target == nil {
		return 0, ErrUnavailable
	}
	if p.Tracing() {
		sp := p.StartSpan("ncl", "remoteread", trace.Str("file", lg.name), trace.Int("bytes", n))
		defer p.EndSpan(sp)
	}
	p.Sleep(lg.lib.cfg.ReadOverhead) // per-read library overhead (WR setup + poll)
	if err := lg.readInto(p, target, HeaderSize+int(off), buf[:n]); err != nil {
		return 0, err
	}
	return int(n), nil
}

// ReadAt copies log content into buf from offset off. On a log whose recovery
// is still streaming it blocks until the bytes asked for have arrived, and
// fails if the recovery did.
func (lg *Log) ReadAt(p *simnet.Proc, buf []byte, off int64) (int, error) {
	if off >= lg.length {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > lg.length {
		n = lg.length - off
	}
	if r := lg.rec; r != nil {
		if err := r.await(p, off+n); err != nil {
			return 0, err
		}
	}
	copy(buf[:n], lg.buf[HeaderSize+off:HeaderSize+off+n])
	return int(n), nil
}

// Release frees the log's resources everywhere: the paper's `release` call,
// invoked when the application deletes the ncl file after a checkpoint or
// compaction (§4.3). The ap-map entry is removed, the peer regions parked as
// the lib's spare group for the next open of the log's shape, and the local
// state reset.
func (lg *Log) Release(p *simnet.Proc) error {
	sp := p.StartSpan("ncl", "release", trace.Str("file", lg.name))
	defer p.EndSpan(sp)
	if err := lg.Sync(p); err != nil {
		return err
	}
	lg.mu.Lock(p)
	if lg.released {
		lg.mu.Unlock(p)
		return nil
	}
	lg.released = true
	lg.ackCond.Broadcast(p)
	spare := lg.spare()
	lg.mu.Unlock(p)

	err := lg.lib.release(p, lg.name, nil, spare)
	// Local teardown happens regardless of the ap-map outcome: the poller
	// and repair procs must die and the lib must forget the log even when
	// the delete proposal times out on a saturated controller, or every
	// failed release strands a proc pair. The entry left behind still has
	// its regions: ReleaseByName can retry it, Recover can reopen it.
	lg.teardown(p)
	return err
}

// ReleaseByName frees an ncl file by name: the live log if this instance
// holds it, otherwise (e.g. a log superseded by a checkpoint that a
// recovering application deletes without replaying) whatever the ap-map
// records — the entry is removed and the peers holding regions are told to
// release them. Unreachable peers reclaim their allocations via the
// space-leak GC, the entry being gone. A name the ap-map does not hold is
// ErrNotFound.
func (l *Lib) ReleaseByName(p *simnet.Proc, name string) error {
	if lg, ok := l.logs[name]; ok {
		return lg.Release(p)
	}
	entry, _, err := l.lookup(p, name)
	if err != nil {
		return err
	}
	return l.release(p, name, entry.Peers, nil)
}

// lookup reads name's ap-map entry and version: the one controller round
// trip that reopening or unlinking a file this instance does not hold starts
// with (§4.5.1 "get peer"). An absent name is ErrNotFound; a controller error
// is returned as such, never as absence. Either answer updates Known.
func (l *Lib) lookup(p *simnet.Proc, name string) (controller.FileEntry, int64, error) {
	entry, ver, found, err := l.ctrl.GetAppFile(p, l.appID, name)
	if err != nil {
		return entry, 0, fmt.Errorf("ncl: ap-map lookup of %s: %w", name, err)
	}
	if !found {
		delete(l.known, name)
		return entry, 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	l.known[name] = true
	return entry, ver, nil
}

// release frees an ncl file's remote state — the one place that does. The
// ap-map delete is the commit point: only once the entry is gone are the
// regions let go of: a log this lib held parks them as the spare group park,
// and the spare it displaces is freed instead; the regions of an entry it did
// not hold are freed. The other order could leave an entry whose regions are gone,
// which no later instance can recover or get past. If the delete fails, entry
// and regions both stay and the file remains recoverable.
func (l *Lib) release(p *simnet.Proc, name string, peers []string, park *spareGroup) error {
	if err := l.ctrl.DeleteAppFile(p, l.appID, name); err != nil {
		return fmt.Errorf("ncl: ap-map delete: %w", err)
	}
	delete(l.known, name)
	if park != nil {
		displaced := l.spare
		if l.spare = park; displaced == nil {
			return nil
		}
		name, peers = displaced.name, displaced.names()
	}
	l.freeRegions(p, name, peers)
	return nil
}

// freeRegions tells the peers holding name's regions to release them — all at
// once, and waited for, so that each has its memory back before the caller's
// next set-up can reach it (best effort: a dead peer's allocation, or every
// region if the application crashes right here, goes to the peers' epoch GC).
func (l *Lib) freeRegions(p *simnet.Proc, name string, peers []string) {
	fanOut(p, l, peers, func(fp *simnet.Proc, _ int, pname string) error {
		_, err := l.sim.Net().CallTimeout(fp, l.node, peer.Addr(pname), peer.ReleaseReq{
			App: l.appID, File: name,
		}.MarshalWire(), 10*time.Millisecond)
		return err
	})
}

// LivePeers returns the names of currently active, healthy peers (tests).
func (lg *Log) LivePeers() []string {
	var out []string
	for _, pc := range lg.peers {
		if pc != nil && pc.active && !pc.failed {
			out = append(out, pc.name)
		}
	}
	return out
}
