// Package model is the single home of the hardware cost model. Every
// calibrated cost the simulation charges — RDMA verbs timing, dfs
// disk/replication timing, controller/Raft quorum latencies, peer daemon
// costs, per-application CPU costs, and the default network latency — lives
// in a Profile beside the deployment and experiment axes (session timeout,
// region size, replication policy, cache size, ...), and the rest of the
// stack only ever receives those values through one:
//
//   - harness.Options takes a *Profile and wires it into every substrate;
//   - internal/bench cluster builders route Scale.Profile the same way;
//   - the per-package Default*() functions (rdma.DefaultParams,
//     dfs.DefaultParams, raft.DefaultConfig, controller.DefaultConfig,
//     peer.DefaultConfig, ncl.DefaultConfig, the app DefaultConfigs) are
//     thin wrappers over Baseline();
//
// The substrate packages do not duplicate the parameter types: rdma.Params
// is an alias for RDMAParams, dfs.Params for DFSParams, raft.Config for
// RaftConfig, controller.Config for ControllerConfig, peer.Config for
// PeerConfig and ncl.Config for NCLConfig. That makes this package the one
// auditable parameter surface — changing a cost anywhere else is a compile
// error, not a review hazard. Protocol timers are not costs: they are
// constants beside their protocol (raft, controller, ncl, rdma, dfs).
//
// Every leaf field declares where its value comes from in a src struct tag:
// paper:<ref> (a row of DESIGN.md §4's table), calib:<probe> (a term of that
// probe's calibration target), or axis:<file.go> (the experiment or test
// that varies it). The census test in this package checks each one.
//
// There is one cost model, Baseline (profiles.go): the paper's testbed, with
// its provenance. Calibrate checks probe measurements against targets
// derived from a profile (calibrate.go), giving every future performance
// change a regression gate.
package model

import "time"

// RDMAParams is the fabric cost model (rdma.Params is an alias of this
// type). Calibrated so a 128 B application write (data WR + 16 B sequence
// WR, SQ-ordered) completes in ~3 us of fabric time, matching the paper's
// 4.6 us end-to-end NCL record latency once library overhead is added; a
// 60 MB region registers in ~54 ms (Table 3's "connect to new peer" step).
type RDMAParams struct {
	// WRBase is the fixed per-work-request latency (post to completion) for
	// a zero-byte transfer; half is the request path, half the ack path.
	WRBase time.Duration `src:"calib:ncl-record-128B"`
	// Bandwidth is the per-QP transfer bandwidth in bytes/second.
	Bandwidth float64 `src:"calib:ncl-record-128B"`
	// RegFixed and RegBandwidth model memory-region registration (pinning
	// pages and programming the NIC): RegFixed + size/RegBandwidth.
	RegFixed     time.Duration `src:"calib:mr-register-60MB"`
	RegBandwidth float64       `src:"calib:mr-register-60MB"`
}

// DFSParams is the storage cost model (dfs.Params is an alias of this
// type). The baseline instance models the paper's CephFS deployment
// (3 replicas on SATA SSDs behind a 25 Gb network); a second instance
// models the local-ext4 recovery baseline of Fig 11b.
type DFSParams struct {
	// SyncFixed is the fixed cost of an fsync round trip (client -> primary
	// -> replicas -> ack), paid even for tiny payloads.
	SyncFixed time.Duration `src:"calib:dfs-sync-write-128B"`
	// SyncCleanFixed is the cost of an fsync with nothing dirty.
	SyncCleanFixed time.Duration `src:"paper:§5 testbed"`
	// WriteBandwidth is the shared durable-write bandwidth (bytes/sec).
	WriteBandwidth float64 `src:"calib:dfs-sync-write-128B"`
	// ReadFixed is the fixed cost of one storage fetch (cache miss).
	ReadFixed time.Duration `src:"paper:Fig 11(a)"`
	// ReadBandwidth is the shared fetch bandwidth (bytes/sec).
	ReadBandwidth float64 `src:"paper:Fig 11(b)"`
	// MetaFixed is the cost of a metadata op (create/unlink/rename/open).
	MetaFixed time.Duration `src:"calib:dfs-chain-append-64MB"`
	// SyscallFixed is the client-local cost of a buffered read/write call.
	SyscallFixed time.Duration `src:"calib:dfs-sync-write-128B"`
	// MemBandwidth is the client-local copy bandwidth for buffered IO and
	// cache hits (bytes/sec).
	MemBandwidth float64 `src:"paper:Fig 8"`
	// CacheCapacity is the client block-cache capacity in bytes.
	CacheCapacity int64 `src:"axis:internal/bench/bench.go"`
	// DirtyHighWater stalls writers until writeback drains below it.
	DirtyHighWater int64 `src:"axis:internal/dfs/throttle_test.go"`
	// WritebackInterval is the periodic background flush cadence.
	WritebackInterval time.Duration `src:"axis:internal/dfs/throttle_test.go"`
	// WritebackThrottleMax is the maximum per-write throttling delay as
	// dirty data approaches the high watermark (the balance_dirty_pages
	// effect: fsync-less "weak" log writes still pay for the writeback
	// they defer; applications whose logs bypass the dfs do not).
	WritebackThrottleMax time.Duration `src:"axis:internal/dfs/throttle_test.go"`

	// The extent plane (ChubaoFS-style extents with chain replication for
	// appends; DXRAM-style append-only backup logs on the storage nodes).
	// Large files opened with the extent flag bypass the flat primary-copy
	// sync path above: appends stream down a per-extent chain of storage
	// nodes and are acked once resident in ChainLength memories, with each
	// node draining to disk asynchronously. ExtentNodes == 0 disables the
	// plane entirely (the LocalFS instance, and any pre-extent profile).

	// ExtentNodes is the number of storage nodes backing the extent plane.
	ExtentNodes int `src:"axis:internal/dfs/extent_test.go"`
	// ExtentSize is the fixed extent capacity; an append that fills the
	// tail extent allocates a fresh one on a new chain.
	ExtentSize int64 `src:"axis:internal/bench/dfs.go"`
	// ChainLength is the replication factor: every extent lives on a chain
	// of this many storage nodes (client -> head -> ... -> tail, ack up).
	ChainLength int `src:"calib:dfs-chain-append-64MB"`
	// ChainFrame is the maximum bytes per chained append frame; a flush is
	// cut into frames so the chain pipelines instead of store-and-forward
	// on the whole payload.
	ChainFrame int `src:"axis:internal/dfs/extent_test.go"`
	// ChainWindow is how many frames a client keeps in flight per append
	// stream before waiting for acks.
	ChainWindow int `src:"axis:internal/dfs/extent_test.go"`
	// LinkBandwidth is the per-link network bandwidth (bytes/sec) of each
	// hop on a chain: client egress, storage-node ingress and egress each
	// serialize at this rate.
	LinkBandwidth float64 `src:"calib:dfs-chain-append-64MB"`
	// AppendFixed is the fixed per-frame cost at each storage node
	// (request handling, log-index update, memory commit).
	AppendFixed time.Duration `src:"calib:dfs-chain-append-64MB"`
}

// RaftConfig holds the consensus costs (raft.Config is an alias of this
// type): commit latency ~2 ms on the baseline. The protocol's timers are
// constants in internal/raft.
type RaftConfig struct {
	// FsyncCost models persisting term/vote/log entries before answering.
	FsyncCost time.Duration `src:"calib:controller-op"`
	// ApplyCPU models the single-threaded state-machine apply path: every
	// committed command pays this on the apply proc (deserialize, mutate
	// the tree, build the reply). With group commit amortizing FsyncCost
	// across a batch, this serial stage is what caps a group's linearizable
	// op throughput at roughly 1/ApplyCPU — the knee the control-plane
	// scaling experiment measures.
	ApplyCPU time.Duration `src:"paper:§5 testbed"`
}

// ControllerConfig holds controller timing (controller.Config is an alias
// of this type).
type ControllerConfig struct {
	Raft RaftConfig
	// SessionTimeout is how long a session outlives its last keep-alive:
	// sessions expire ~600 ms after a client dies. The controller derives
	// its keep-alive and expiry-scan periods from it.
	SessionTimeout time.Duration `src:"axis:internal/harness/harness_test.go"`
}

// PeerConfig tunes a log-peer daemon (peer.Config is an alias of this
// type).
type PeerConfig struct {
	// LendableMem is how much memory the peer offers to the common pool.
	LendableMem int64 `src:"axis:internal/harness/harness.go"`
	// GCInterval is the cadence of the space-leak scan.
	GCInterval time.Duration `src:"axis:internal/peer/peer_test.go"`
	// GCGrace is how long an allocation may exist without a matching ap-map
	// entry before it is considered leaked (covers in-progress set-ups).
	GCGrace time.Duration `src:"axis:internal/peer/peer_test.go"`
	// SetupCPU models the lightweight setup process work besides MR
	// registration.
	SetupCPU time.Duration `src:"paper:Table 3"`
	// PublishInterval is how long a peer's publisher waits after the first
	// change to its available memory before it republishes the current
	// value, so changes inside one interval cost one Raft proposal. 0
	// publishes at once (the small-cluster behavior); set it when hundreds
	// of clients churn WALs so the peer pool does not turn every region
	// event into a Raft proposal.
	PublishInterval time.Duration `src:"axis:internal/bench/scale.go"`
	// Domain is the peer's failure domain (rack/power unit), advertised in
	// the registry. Placement spreads a log's peer group across distinct
	// domains when the fleet declares them; empty (the default) opts out.
	Domain string `src:"axis:internal/harness/harness.go"`
}

// NCLConfig tunes ncl-lib (ncl.Config is an alias of this type; ncl.NewLib
// parses Replication).
type NCLConfig struct {
	// Replication selects the replication policy as a spec string:
	//
	//	"mirror"       full copies on 2f+1 peers, f=1 (the paper's setup)
	//	"mirror:F"     full copies with failure budget F
	//	"ec:K,M"       Reed-Solomon striping across K+M peers; any K
	//	               survivors reconstruct, at (K+M)/K memory instead of
	//	               2f+1 full copies (Hydra's memory-tax argument)
	//	"quorum"       unordered one-RTT writes to 2f+1 peers acked at a
	//	               majority, f=1 (SWARM-style)
	//	"quorum:F"     the same with failure budget F
	//
	// Empty means "mirror".
	Replication string `src:"axis:internal/bench/repl.go"`
	// DefaultRegionSize is the ncl region capacity used when a file is
	// opened without an explicit size (64 MiB baseline, and what 0 means).
	DefaultRegionSize int64 `src:"axis:internal/core/fs_test.go"`
	// EncodeBandwidth is the client-side Reed-Solomon encode bandwidth in
	// bytes/sec, paid per record on the ec path (SIMD GF(2^8) arithmetic on
	// the testbed's cores).
	EncodeBandwidth float64 `src:"paper:§5 testbed"`
	// RecordCPU models ncl-lib's per-record client-side work (buffer copy,
	// posting, completion bookkeeping).
	RecordCPU time.Duration `src:"paper:Fig 8"`
	// CatchupCopyCPU is the client-side bandwidth for staging a bulk
	// catch-up transfer (bytes/sec); it briefly occupies the writer and is
	// the "small performance blip" of Fig 12.
	CatchupCopyCPU float64 `src:"paper:Fig 12"`
	// ReadOverhead is ncl-lib's per-call cost of a remote read from a peer
	// region (WR setup + completion poll) on the recovery/verification path.
	ReadOverhead time.Duration `src:"paper:Fig 11(a)"`
	// LocalReadCPU is the fixed user-space cost of serving a read from the
	// log's local buffer — no syscall, which is why it undercuts a dfs read.
	LocalReadCPU time.Duration `src:"paper:Fig 11(a)"`
	// SyncCPU is the cost of Sync on an ncl file: the fsync has left the
	// critical path, so only the library call itself remains.
	SyncCPU time.Duration `src:"paper:Fig 9"`
	// PoolRefresh is how long ncl-lib may reuse its cached copy of the
	// controller's peer registry. At 0 every allocation wave re-reads it (the
	// paper's controller query, one round trip per group of slots); above 0
	// allocations inside the interval share one read. It is a TTL only:
	// candidates are ranked in rendezvous order with failure-domain spread
	// either way.
	PoolRefresh time.Duration `src:"axis:internal/bench/scale.go"`
}

// KVStoreCosts is the RocksDB-style store's per-operation CPU model
// (embedded in kvstore.Config).
type KVStoreCosts struct {
	EncodeCPU time.Duration `src:"paper:Table 1"` // batch serialization, per op
	ApplyCPU  time.Duration `src:"paper:Table 1"` // memtable insert, per op
	GetCPU    time.Duration `src:"paper:Fig 10"`  // read-path lookup work
	MergeCPU  time.Duration `src:"paper:Fig 9"`   // compaction merge work, per entry
	// SlowdownDelay is the per-batch delay applied when L0 is past the
	// slowdown trigger (RocksDB's delayed-write-rate mechanism).
	SlowdownDelay time.Duration `src:"paper:Fig 9"`
}

// RedStoreCosts is the Redis-style store's CPU model (embedded in
// redstore.Config).
type RedStoreCosts struct {
	// OpCPU is the single-threaded per-command processing cost.
	OpCPU time.Duration `src:"paper:Fig 9"`
	// SnapshotCopyBW models the copy-on-write fork cost charged to the loop
	// when a snapshot starts (bytes/sec).
	SnapshotCopyBW float64 `src:"paper:Fig 10"`
}

// LiteDBCosts is the SQLite-style store's CPU model (embedded in
// litedb.Config).
type LiteDBCosts struct {
	// TxnCPU is the per-update-transaction processing cost (SQL parse,
	// B-tree work); ReadCPU the read-transaction cost.
	TxnCPU  time.Duration `src:"paper:Fig 10"`
	ReadCPU time.Duration `src:"paper:Fig 10"`
}

// KVellCosts is the KVell-style no-log store's CPU model (embedded in
// kvell.Config).
type KVellCosts struct {
	// PutCPU/GetCPU model per-op work.
	PutCPU time.Duration `src:"paper:§6"`
	GetCPU time.Duration `src:"paper:§6"`
}

// AppCosts bundles the four ported applications' CPU cost models.
type AppCosts struct {
	KVStore  KVStoreCosts
	RedStore RedStoreCosts
	LiteDB   LiteDBCosts
	KVell    KVellCosts
}

// Profile is one coherent set of hardware assumptions: everything the
// simulated testbed needs to price an operation, and the deployment it
// runs. Callers get a fresh copy from Baseline (profiles.go) and may mutate
// it freely before handing it to harness.Options / bench.Scale.
type Profile struct {
	// Name identifies the profile in reports and -out files.
	Name string `src:"paper:§5 testbed"`

	// RDMA is the fabric cost model.
	RDMA RDMAParams
	// DFS is the disaggregated file system cost model.
	DFS DFSParams
	// LocalFS is the local-ext4 comparison cluster (Fig 11b baseline).
	LocalFS DFSParams
	// Controller holds controller + Raft quorum timing.
	Controller ControllerConfig
	// Peer tunes the log-peer daemons.
	Peer PeerConfig
	// NCL tunes ncl-lib.
	NCL NCLConfig
	// Apps holds the per-application CPU cost models.
	Apps AppCosts
	// NetLatency is the default one-way network latency between nodes
	// (RDMA-class for the baseline).
	NetLatency time.Duration `src:"calib:controller-op"`
}

// clone returns an independent copy.
func (p *Profile) clone() *Profile {
	q := *p
	return &q
}
