// Package peer implements NCL log peers (§4.3, §4.5): compute nodes that
// lend spare memory to hold replicated log regions. A peer's CPU is involved
// only in the control plane — registration, region setup, release, recovery
// lookup, and the atomic region switch used by catch-up. All data-plane
// traffic reaches its memory through 1-sided RDMA without peer involvement.
//
// The peer enforces the paper's safety hooks:
//
//   - mr-map: (application, ncl file) -> memory region, consulted on
//     recovery lookups; a peer that crashed and restarted has lost its
//     mr-map and correctly rejects recovery requests.
//   - Epoch validation: each region stores the epoch of the allocation; a
//     setup request with a stale epoch is rejected, and so is one at the
//     epoch of a region of another size that it finds: a region is only
//     ever replaced by a newer epoch.
//   - Space-leak GC: regions whose application epoch moved on (or whose
//     ap-map entry never appeared) are freed per the §4.5.1 rules, and so is
//     a catch-up staging region that was never switched in.
//   - Tombstones: a set-up that recycles a released file's region keeps the
//     file as released, so that a recovery of an entry the file's ap-map
//     delete never removed finishes the release instead of finding the
//     regions gone (DESIGN.md §14).
//   - Memory revocation: the peer can reclaim a region locally and
//     instantly; subsequent RDMA writes fail and the application treats it
//     as a peer failure.
//
// Pinned is a property of the peer's lendable bytes, not of a region (§5.4.3:
// "in most cases, we expect a peer to have a memory region that is already
// allocated and registered"): a daemon pins its lendable memory in the
// background from the moment it starts, a set-up binds a window of pinned
// bytes and pins itself only what is not pinned yet, and every byte a region
// gives back stays pinned. A restart starts cold (DESIGN.md §3b).
package peer

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"splitft/internal/controller"
	"splitft/internal/model"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// Config tunes a peer daemon. The constants live in internal/model (the
// unified hardware cost-model layer); this alias keeps the peer API
// self-contained.
type Config = model.PeerConfig

// DefaultConfig returns the baseline profile's peer parameters (1 GiB
// lendable).
func DefaultConfig() Config {
	return model.Baseline().Peer
}

// Errors returned to ncl-lib.
var (
	ErrNoMem      = errors.New("peer: insufficient lendable memory")
	ErrNotFound   = errors.New("peer: no such region (mr-map miss)")
	ErrStaleEpoch = errors.New("peer: allocation epoch is stale")
	ErrDead       = errors.New("peer: daemon is down")
	// ErrReleased answers a lookup of a file whose region a recycle took
	// while the file's ap-map delete was still pending: the application
	// released the file, and its entry, if still there, outlived the release.
	ErrReleased = errors.New("peer: region recycled after a release (tombstone)")
)

// Wire codes for the peer RPCs (range 0x10–0x1f; see internal/wire).
const (
	CodeSetup            wire.Code = 0x10
	CodeSetupResp        wire.Code = 0x11
	CodeLookup           wire.Code = 0x12
	CodeLookupResp       wire.Code = 0x13
	CodeRelease          wire.Code = 0x14
	CodeAllocStaging     wire.Code = 0x15
	CodeAllocStagingResp wire.Code = 0x16
	CodeCommitSwitch     wire.Code = 0x17
)

// RPC messages. Each implements wire.Marshaler (requests and responses)
// and wire.Unmarshaler (responses, plus requests for the handler side), so
// call sites go through wire.Call with no boxing.
type SetupReq struct {
	App   string
	File  string
	Size  int64
	Epoch int64
	// Recycle names a released file of the same application whose region
	// this set-up takes over: it is freed first, if the peer still holds it,
	// and leaves a tombstone, so that a recovery of an entry the file's ap-map
	// delete never removed finds the file released rather than its region
	// gone (DESIGN.md §14).
	Recycle string
}

func (r SetupReq) MarshalWire() wire.Msg {
	return wire.Msg{Code: CodeSetup, S: [3]string{r.App, r.File, r.Recycle},
		U: [4]uint64{uint64(r.Size), uint64(r.Epoch)}}
}

func (r *SetupReq) UnmarshalWire(m wire.Msg) error {
	*r = SetupReq{App: m.S[0], File: m.S[1], Size: m.Int(0), Epoch: m.Int(1), Recycle: m.S[2]}
	return nil
}

type SetupResp struct {
	RKey uint64
}

func (r SetupResp) MarshalWire() wire.Msg {
	return wire.Msg{Code: CodeSetupResp, U: [4]uint64{r.RKey}}
}

func (r *SetupResp) UnmarshalWire(m wire.Msg) error {
	r.RKey = m.U[0]
	return nil
}

type LookupReq struct {
	App  string
	File string
}

func (r LookupReq) MarshalWire() wire.Msg {
	return wire.Msg{Code: CodeLookup, S: [3]string{r.App, r.File}}
}

func (r *LookupReq) UnmarshalWire(m wire.Msg) error {
	*r = LookupReq{App: m.S[0], File: m.S[1]}
	return nil
}

type LookupResp struct {
	RKey  uint64
	Size  int64
	Epoch int64
}

func (r LookupResp) MarshalWire() wire.Msg {
	return wire.Msg{Code: CodeLookupResp, U: [4]uint64{r.RKey, uint64(r.Size), uint64(r.Epoch)}}
}

func (r *LookupResp) UnmarshalWire(m wire.Msg) error {
	*r = LookupResp{RKey: m.U[0], Size: m.Int(1), Epoch: m.Int(2)}
	return nil
}

type ReleaseReq struct {
	App  string
	File string
}

func (r ReleaseReq) MarshalWire() wire.Msg {
	return wire.Msg{Code: CodeRelease, S: [3]string{r.App, r.File}}
}

func (r *ReleaseReq) UnmarshalWire(m wire.Msg) error {
	*r = ReleaseReq{App: m.S[0], File: m.S[1]}
	return nil
}

type AllocStagingReq struct {
	App   string
	File  string
	Size  int64
	Epoch int64
}

func (r AllocStagingReq) MarshalWire() wire.Msg {
	return wire.Msg{Code: CodeAllocStaging, S: [3]string{r.App, r.File},
		U: [4]uint64{uint64(r.Size), uint64(r.Epoch)}}
}

func (r *AllocStagingReq) UnmarshalWire(m wire.Msg) error {
	*r = AllocStagingReq{App: m.S[0], File: m.S[1], Size: m.Int(0), Epoch: m.Int(1)}
	return nil
}

type AllocStagingResp struct {
	StagingID int64
	RKey      uint64
}

func (r AllocStagingResp) MarshalWire() wire.Msg {
	return wire.Msg{Code: CodeAllocStagingResp, U: [4]uint64{uint64(r.StagingID), r.RKey}}
}

func (r *AllocStagingResp) UnmarshalWire(m wire.Msg) error {
	*r = AllocStagingResp{StagingID: m.Int(0), RKey: m.U[1]}
	return nil
}

type CommitSwitchReq struct {
	App       string
	File      string
	StagingID int64
	Epoch     int64
}

func (r CommitSwitchReq) MarshalWire() wire.Msg {
	return wire.Msg{Code: CodeCommitSwitch, S: [3]string{r.App, r.File},
		U: [4]uint64{uint64(r.StagingID), uint64(r.Epoch)}}
}

func (r *CommitSwitchReq) UnmarshalWire(m wire.Msg) error {
	*r = CommitSwitchReq{App: m.S[0], File: m.S[1], StagingID: m.Int(0), Epoch: m.Int(1)}
	return nil
}

type regionKey struct{ app, file string }

type region struct {
	mr        *rdma.MR
	size      int64
	epoch     int64
	createdAt time.Duration
}

// tomb is what a recycle keeps of a released file's region: its epoch, and
// when it was recycled.
type tomb struct {
	epoch     int64
	createdAt time.Duration
}

// Peer is a running log-peer daemon.
type Peer struct {
	sim  *simnet.Sim
	node *simnet.Node
	name string
	nic  *rdma.NIC
	ctrl *controller.Client
	cfg  Config

	avail int64
	// pinned counts the idle bytes (of avail) that are pinned already; the
	// rest of avail is cold until the warmer or a set-up pins it.
	pinned int64
	// availDirty is set from a change of avail until the publisher takes it,
	// and wakePub is how the change wakes the publisher.
	availDirty bool
	wakePub    simnet.Semaphore
	regions    map[regionKey]*region // the mr-map
	// tombs are the released files whose regions a set-up recycled.
	tombs     map[regionKey]tomb
	staging   map[int64]*region
	nextStage int64
	dead      bool

	// recycled is the host-side free list of the backing buffers (and their
	// invalidated MRs) of freed regions, by size, so that a simulated rotation
	// does not allocate a region of real memory. It decides no virtual cost:
	// what a set-up pays depends on pinned alone.
	recycled map[int64][]*rdma.MR
}

// warmChunk is the unit in which the warmer pins idle lendable memory; the
// bytes count as pinned when the whole chunk is.
const warmChunk = 16 << 20

// Addr returns the RPC address of the peer daemon named name.
func Addr(name string) string { return name + "/peer" }

// Start boots a peer daemon on node: it registers with the controller,
// serves setup/lookup/release/switch RPCs, runs the space-leak GC and starts
// pinning its lendable memory. Call Start again (with a fresh NIC) after a
// node restart: nothing the previous daemon pinned survives it.
func Start(p *simnet.Proc, svc *controller.Service, fabric *rdma.Fabric, node *simnet.Node, cfg Config) (*Peer, error) {
	pr := &Peer{
		sim:      node.Sim(),
		node:     node,
		name:     node.Name(),
		nic:      fabric.AttachNIC(node),
		cfg:      cfg,
		avail:    cfg.LendableMem,
		regions:  make(map[regionKey]*region),
		tombs:    make(map[regionKey]tomb),
		staging:  make(map[int64]*region),
		recycled: make(map[int64][]*rdma.MR),
	}
	pr.ctrl = controller.NewClient(svc, node, pr.name, int64(node.Incarnation()))
	node.OnCrash(func() { pr.dead = true })
	if _, err := pr.ctrl.StartSession(p, ""); err != nil {
		return nil, fmt.Errorf("peer %s: session: %w", pr.name, err)
	}
	if err := pr.ctrl.RegisterPeer(p, pr.info()); err != nil {
		return nil, fmt.Errorf("peer %s: register: %w", pr.name, err)
	}
	pr.sim.Net().Register(Addr(pr.name), node, pr.handleRPC)
	node.Go("peer-gc:"+pr.name, pr.gcLoop)
	node.Go("peer-warm:"+pr.name, pr.warm)
	node.Go("peer-pub:"+pr.name, pr.publisher)
	return pr, nil
}

// info is the peer's registry entry as of now.
func (pr *Peer) info() controller.PeerInfo {
	return controller.PeerInfo{Name: pr.name, Addr: Addr(pr.name), Domain: pr.cfg.Domain, AvailMem: pr.avail}
}

// Name returns the peer's identity.
func (pr *Peer) Name() string { return pr.name }

// Avail returns the currently unallocated lendable memory.
func (pr *Peer) Avail() int64 { return pr.avail }

// Regions returns the number of live regions in the mr-map (tests).
func (pr *Peer) Regions() int { return len(pr.regions) }

// Tombstones returns the number of tombstones the peer keeps (tests).
func (pr *Peer) Tombstones() int { return len(pr.tombs) }

// RegionBytes exposes a region's memory for white-box tests.
func (pr *Peer) RegionBytes(app, file string) ([]byte, bool) {
	r, ok := pr.regions[regionKey{app, file}]
	if !ok {
		return nil, false
	}
	return r.mr.Bytes(), true
}

// rpcOp names the span for each request code (tracing only).
func rpcOp(c wire.Code) string {
	switch c {
	case CodeSetup:
		return "setup"
	case CodeLookup:
		return "lookup"
	case CodeRelease:
		return "release"
	case CodeAllocStaging:
		return "staging"
	case CodeCommitSwitch:
		return "switch"
	default:
		return "unknown"
	}
}

func (pr *Peer) handleRPC(p *simnet.Proc, m simnet.Msg) (simnet.Msg, error) {
	if pr.dead {
		return simnet.Msg{}, ErrDead
	}
	if p.Tracing() {
		sp := p.StartSpan("peer", rpcOp(m.Code), trace.Str("file", m.S[0]+"/"+m.S[1]))
		defer p.EndSpan(sp)
	}
	switch m.Code {
	case CodeSetup:
		var r SetupReq
		r.UnmarshalWire(m) //nolint:errcheck
		resp, err := pr.onSetup(p, r)
		if err != nil {
			return simnet.Msg{}, err
		}
		return resp.MarshalWire(), nil
	case CodeLookup:
		var r LookupReq
		r.UnmarshalWire(m) //nolint:errcheck
		resp, err := pr.onLookup(p, r)
		if err != nil {
			return simnet.Msg{}, err
		}
		return resp.MarshalWire(), nil
	case CodeRelease:
		var r ReleaseReq
		r.UnmarshalWire(m) //nolint:errcheck
		return wire.Ack{}.MarshalWire(), pr.onRelease(p, r)
	case CodeAllocStaging:
		var r AllocStagingReq
		r.UnmarshalWire(m) //nolint:errcheck
		resp, err := pr.onAllocStaging(p, r)
		if err != nil {
			return simnet.Msg{}, err
		}
		return resp.MarshalWire(), nil
	case CodeCommitSwitch:
		var r CommitSwitchReq
		r.UnmarshalWire(m) //nolint:errcheck
		return wire.Ack{}.MarshalWire(), pr.onCommitSwitch(p, r)
	default:
		return simnet.Msg{}, fmt.Errorf("peer: unknown rpc code %#x", m.Code)
	}
}

// onSetup allocates and registers a region for an ncl file (paper step 3).
// This is the only heavyweight peer-CPU involvement, and it happens once
// per file (or per replacement). A set-up that recycles a released file's
// region frees that region first, so its bytes come back zeroed under a new
// rkey and, being the same number, leave the free memory the controller was
// told about as it was: the peer republishes only when the handler changed it.
// The freed region leaves a tombstone, since the released file's ap-map delete
// may not have committed; a set-up of a file supersedes any tombstone of it.
func (pr *Peer) onSetup(p *simnet.Proc, r SetupReq) (SetupResp, error) {
	before := pr.avail
	defer func() {
		if pr.avail != before {
			pr.publishAvail(p)
		}
	}()
	if r.Recycle != "" {
		rkey := regionKey{r.App, r.Recycle}
		if old, ok := pr.regions[rkey]; ok {
			pr.freeRegion(p, rkey, old)
			pr.tombs[rkey] = tomb{epoch: old.epoch, createdAt: p.Now()}
		}
	}
	key := regionKey{r.App, r.File}
	delete(pr.tombs, key)
	if old, ok := pr.regions[key]; ok {
		if r.Epoch < old.epoch {
			return SetupResp{}, ErrStaleEpoch
		}
		if r.Epoch == old.epoch {
			// A set-up at the epoch of the region it finds never replaces
			// it: the region may hold another instance's acknowledged
			// writes — an instance whose directory missed the file creates
			// it again at epoch 1 — and the ap-map, not this peer, decides
			// whose file it is. Of another size it is refused. Of the same
			// size it is a duplicate: the retried (or stale, still-queued)
			// request of an ambiguous earlier attempt, or that other
			// instance's, and gets the existing region, contents and all —
			// freeing here would invalidate an MR the application may
			// already be writing through. The retry also re-arms the GC
			// grace clock: the application is clearly still working on
			// getting this file's ap-map entry committed.
			if old.size != r.Size {
				return SetupResp{}, ErrStaleEpoch
			}
			old.createdAt = p.Now()
			return SetupResp{RKey: old.mr.RKey()}, nil
		}
		// Strictly newer epoch: replace the old region.
		pr.freeRegion(p, key, old)
	}
	reg, err := pr.newRegion(p, r.Size, r.Epoch)
	if err != nil {
		return SetupResp{}, err
	}
	pr.regions[key] = reg
	return SetupResp{RKey: reg.mr.RKey()}, nil
}

// warm pins the idle lendable memory chunk by chunk until none of it is cold,
// and exits: a byte that is pinned stays pinned through every region it is
// lent to, so there is nothing left to do until the next restart. A set-up
// never waits for it. One that needs bytes the warmer has in hand pins them
// itself, and the warmer's credit is capped at what is still idle, so no byte
// counts as pinned twice.
func (pr *Peer) warm(p *simnet.Proc) {
	for pr.pinned < pr.avail {
		n := min(warmChunk, pr.avail-pr.pinned)
		if pr.nic.Pin(p, n) != nil {
			return // the NIC went down: this daemon is dead
		}
		pr.pinned = min(pr.pinned+n, pr.avail)
	}
}

// newRegion takes size bytes out of the lendable pool, idle pinned bytes
// first, and registers them, pinning only the shortfall: the body of a setup
// and of a staging allocation alike.
func (pr *Peer) newRegion(p *simnet.Proc, size, epoch int64) (*region, error) {
	if pr.avail < size {
		return nil, ErrNoMem
	}
	warm := min(size, pr.pinned)
	pr.avail -= size // reserve before the blocking registration
	pr.pinned -= warm
	p.Sleep(pr.cfg.SetupCPU)
	mr, err := pr.register(p, size, size-warm)
	if err != nil {
		pr.avail += size
		pr.pinned += warm
		return nil, err
	}
	return &region{mr: mr, size: size, epoch: epoch, createdAt: p.Now()}, nil
}

// register binds size bytes, cold of them not pinned yet, to the NIC. The
// backing buffer comes zeroed off the free list when it holds one of the size.
func (pr *Peer) register(p *simnet.Proc, size, cold int64) (*rdma.MR, error) {
	pool := pr.recycled[size]
	if len(pool) == 0 {
		return pr.nic.RegisterMR(p, make([]byte, size), cold)
	}
	mr := pool[len(pool)-1]
	pr.recycled[size] = pool[:len(pool)-1]
	if err := pr.nic.RefreshMR(p, mr, cold); err != nil {
		return nil, err
	}
	clear(mr.Bytes())
	return mr, nil
}

// onLookup serves application recovery (§4.5.1): return the region key if
// the mr-map has it; ErrReleased if a recycle left a tombstone in its place;
// reject otherwise (e.g. this peer crashed and restarted since the
// allocation).
func (pr *Peer) onLookup(_ *simnet.Proc, r LookupReq) (LookupResp, error) {
	key := regionKey{r.App, r.File}
	reg, ok := pr.regions[key]
	if !ok {
		if _, ok := pr.tombs[key]; ok {
			return LookupResp{}, ErrReleased
		}
		return LookupResp{}, ErrNotFound
	}
	return LookupResp{RKey: reg.mr.RKey(), Size: reg.size, Epoch: reg.epoch}, nil
}

// onRelease frees the region, or drops the tombstone, when the application
// deletes the ncl file.
func (pr *Peer) onRelease(p *simnet.Proc, r ReleaseReq) error {
	key := regionKey{r.App, r.File}
	delete(pr.tombs, key)
	reg, ok := pr.regions[key]
	if !ok {
		return nil // idempotent
	}
	pr.freeRegion(p, key, reg)
	pr.publishAvail(p)
	return nil
}

// onAllocStaging allocates a staging region for the atomic catch-up switch
// (§4.5.1): the recovering application RDMA-writes the recovered content
// into staging, then commits the switch. One that dies in between leaves the
// staging to the GC.
func (pr *Peer) onAllocStaging(p *simnet.Proc, r AllocStagingReq) (AllocStagingResp, error) {
	reg, err := pr.newRegion(p, r.Size, r.Epoch)
	if err != nil {
		return AllocStagingResp{}, err
	}
	pr.nextStage++
	pr.staging[pr.nextStage] = reg
	return AllocStagingResp{StagingID: pr.nextStage, RKey: reg.mr.RKey()}, nil
}

// onCommitSwitch atomically repoints the mr-map entry to the staged region
// and invalidates the old one. "Atomic" is trivial here — the handler body
// runs without yielding between the two assignments.
func (pr *Peer) onCommitSwitch(p *simnet.Proc, r CommitSwitchReq) error {
	stage, ok := pr.staging[r.StagingID]
	if !ok {
		return ErrNotFound
	}
	delete(pr.staging, r.StagingID)
	key := regionKey{r.App, r.File}
	if old, ok := pr.regions[key]; ok {
		pr.freeRegion(p, key, old)
	}
	stage.epoch = r.Epoch
	pr.regions[key] = stage
	pr.publishAvail(p)
	return nil
}

func (pr *Peer) freeRegion(_ *simnet.Proc, key regionKey, reg *region) {
	pr.reclaim(reg)
	delete(pr.regions, key)
}

// reclaim makes a region's memory lendable again, still pinned.
func (pr *Peer) reclaim(reg *region) {
	reg.mr.Invalidate()
	pr.recycled[reg.size] = append(pr.recycled[reg.size], reg.mr)
	pr.avail += reg.size
	pr.pinned += reg.size
}

// publishAvail tells the publisher that avail changed, waking it unless a
// change is pending already.
func (pr *Peer) publishAvail(p *simnet.Proc) {
	if !pr.availDirty {
		pr.availDirty = true
		pr.wakePub.Release(p)
	}
}

// publisher keeps the controller's (hint) view of the peer's free memory
// current, in the background so data-path RPCs don't wait on a Raft commit.
// Woken by a change, it waits PublishInterval so every change inside it
// shares one proposal (at 0 not even a yield, which would reorder it behind
// the procs due at the same instant), then publishes the value current at
// that moment as one unconditional set (a hint needs no read-modify-write). A
// change during the proposal wakes it once more; an idle peer's publisher
// sleeps.
func (pr *Peer) publisher(p *simnet.Proc) {
	for {
		pr.wakePub.Acquire(p)
		if d := pr.cfg.PublishInterval; d > 0 {
			p.Sleep(d)
		}
		pr.availDirty = false
		pr.ctrl.PublishPeer(p, pr.info()) //nolint:errcheck
	}
}

// Revoke reclaims the memory of one region at the peer's will (memory
// pressure, §4.5.2). Reclamation is local and instantaneous: the MR is
// invalidated so subsequent RDMA writes fail and the application treats
// this peer as failed. Background bookkeeping follows.
func (pr *Peer) Revoke(p *simnet.Proc, app, file string) bool {
	key := regionKey{app, file}
	reg, ok := pr.regions[key]
	if !ok {
		return false
	}
	pr.freeRegion(p, key, reg)
	pr.publishAvail(p)
	return true
}

// gcLoop implements the §4.5.1 space-leak rules: for each region with epoch
// e_r, fetch the application's current ap-map entry epoch e. If e > e_r the
// application moved on — free. If e < e_r the allocation may still be in
// progress — keep. If e == e_r, free only if this peer is not a member. A
// region with no ap-map entry at all is freed once older than the grace
// period (the application died between allocation and ap-map update). So is
// a staging region nobody switched in — the application died mid catch-up —
// by its age alone: no ap-map entry ever names a staging.
// Tombstones are swept by the same loop (sweepTombs).
func (pr *Peer) gcLoop(p *simnet.Proc) {
	for {
		p.Sleep(pr.cfg.GCInterval)
		freed := false
		for id := int64(1); id <= pr.nextStage && len(pr.staging) > 0; id++ { // in allocation order
			if st, ok := pr.staging[id]; ok && p.Now()-st.createdAt > pr.cfg.GCGrace {
				pr.reclaim(st)
				delete(pr.staging, id)
				freed = true
			}
		}
		// Snapshot keys in deterministic order.
		keys := make([]regionKey, 0, len(pr.regions))
		for k := range pr.regions {
			keys = append(keys, k)
		}
		sortRegionKeys(keys)
		for _, k := range keys {
			reg, ok := pr.regions[k]
			if !ok {
				continue // released while we slept
			}
			entry, _, found, err := pr.ctrl.GetAppFile(p, k.app, k.file)
			if err != nil {
				continue // controller unavailable; retry next round
			}
			if cur, ok := pr.regions[k]; !ok || cur != reg {
				// Released or replaced while the controller query was in
				// flight. Freeing the stale pointer would pool its MR a second
				// time, silently aliasing two future regions onto one MR.
				continue
			}
			if !found {
				if p.Now()-reg.createdAt > pr.cfg.GCGrace {
					pr.freeRegion(p, k, reg)
					freed = true
				}
				continue
			}
			if reg.epoch > entry.Epoch {
				// Allocation newer than the ap-map: a replacement that has
				// not CASed its membership yet. Keep it.
				continue
			}
			member := false
			for _, name := range entry.Peers {
				if name == pr.name {
					member = true
					break
				}
			}
			// A region the current membership names is live no matter how
			// old its epoch: survivors of a replacement keep their original
			// allocation while the entry's epoch advances past it. Only
			// regions the entry does not name — abandoned allocations,
			// replaced-out members — are garbage, and only after the grace
			// period so an in-flight setup is not swept mid-handshake.
			if !member && p.Now()-reg.createdAt > pr.cfg.GCGrace {
				pr.freeRegion(p, k, reg)
				freed = true
			}
		}
		pr.sweepTombs(p)
		if freed {
			pr.publishAvail(p)
		}
	}
}

// sweepTombs drops the tombstones whose file no ap-map entry names on this
// peer any more: its delete committed, or a recovery finished the release. A
// tombstone is a few bytes and a delete commits within a controller round
// trip, so only those older than the grace period are judged, with one read
// of their application's directory.
func (pr *Peer) sweepTombs(p *simnet.Proc) {
	var keys []regionKey
	for k, tb := range pr.tombs {
		if p.Now()-tb.createdAt > pr.cfg.GCGrace {
			keys = append(keys, k)
		}
	}
	sortRegionKeys(keys)
	for i, j := 0, 0; i < len(keys); i = j {
		for j = i + 1; j < len(keys) && keys[j].app == keys[i].app; j++ {
		}
		entries, err := pr.ctrl.ListAppFiles(p, keys[i].app)
		if err != nil {
			continue // controller unavailable; retry next round
		}
		for _, k := range keys[i:j] {
			e, found := entries[k.file]
			if tb, ok := pr.tombs[k]; ok && (!found || e.Epoch < tb.epoch || !slices.Contains(e.Peers, pr.name)) {
				delete(pr.tombs, k)
			}
		}
	}
}

func sortRegionKeys(keys []regionKey) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func less(a, b regionKey) bool {
	if a.app != b.app {
		return a.app < b.app
	}
	return a.file < b.file
}
