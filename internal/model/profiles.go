package model

import (
	"fmt"
	"sort"
	"time"
)

// cx4RoCE25 is the paper-faithful baseline, built once and cloned on every
// request so callers can mutate their copy freely.
//
// Provenance (DESIGN.md §4, all targets from the paper's §5 testbed —
// 8-node CloudLab cluster, Mellanox CX-4 NICs on 25 Gb RoCE, CephFS on
// 3-replica SATA SSDs, ZooKeeper controller, E5-2640v4 servers):
//
//   - RDMA: 1-sided write ≈ 1.5 µs base + size/3 GB/s; one app write is a
//     data WR + 16 B seq WR (SQ-ordered) ⇒ 128 B NCL record ≈ 3 µs fabric
//     time (paper end-to-end: 4.6 µs). MR registration 2 ms + size/1.2 GB/s
//     ⇒ 60 MB ≈ 54 ms (Table 3 "connect to new peer and set up MR").
//   - dfs: sync write ≈ 2.3 ms fixed (client→primary→2 replicas) +
//     size/500 MB/s (Table 1, Fig 8 "strong"); Fig 1(d): 512 B ≈ 0.2 MB/s
//     vs 64 MB ≈ 450 MB/s (≈3 orders of magnitude).
//   - Local ext4 on a SATA SSD (Fig 11b comparison): sync ≈ 0.9 ms,
//     ~450-520 MB/s.
//   - Controller: Raft quorum commit dominated by two ~0.8 ms log fsyncs
//     ⇒ ~1.6-2 ms per metadata op (paper's ZooKeeper: 2-4 ms,
//     Table 3 "get peer"/"ap-map").
//   - Apps: kvstore ~3.8 µs CPU per group-committed op (weak ≈ 230 KOps/s
//     at 12 clients), redstore ~8.6 µs single-threaded op, litedb ~180 µs
//     per transaction, kvell ~2 µs per put.
//   - NetLatency: 5 µs one-way, RDMA-class datacenter fabric.
var cx4RoCE25 = Profile{
	Name: "CX4RoCE25",
	Provenance: "Paper-faithful baseline: Mellanox CX-4 / 25 Gb RoCE, CephFS on " +
		"3-replica SATA SSDs, ZooKeeper-class controller (DESIGN.md §4).",
	RDMA: RDMAParams{
		WRBase:       1500 * time.Nanosecond,
		Bandwidth:    3e9, // ~25 Gb/s RoCE
		RegFixed:     2 * time.Millisecond,
		RegBandwidth: 1.2e9,
		ConnectBase:  30 * time.Microsecond,
	},
	DFS: DFSParams{
		SyncFixed:            2300 * time.Microsecond,
		SyncCleanFixed:       250 * time.Microsecond,
		WriteBandwidth:       500e6,
		ReadFixed:            550 * time.Microsecond,
		ReadBandwidth:        1e9,
		MetaFixed:            500 * time.Microsecond,
		SyscallFixed:         800 * time.Nanosecond,
		MemBandwidth:         10e9,
		CacheCapacity:        256 << 20,
		DirtyHighWater:       64 << 20,
		WritebackInterval:    500 * time.Millisecond,
		WritebackThrottleMax: 2500 * time.Nanosecond,
		// Extent plane: 16 storage nodes, 4 MB extents on 3-node chains
		// (CephFS-class replication factor), 512 KB frames with an 8-frame
		// window. Links run at the fabric's 3 GB/s; each node drains its
		// append log to a SATA SSD at the same 500 MB/s the flat path
		// models, but off the ack path (DXRAM-style backup logging), so a
		// 64 MB append is bounded by client egress (~21 ms) instead of the
		// shared 500 MB/s pipe plus sync round trip (~137 ms).
		ExtentNodes:        16,
		ExtentSize:         4 << 20,
		ChainLength:        3,
		ChainFrame:         512 << 10,
		ChainWindow:        8,
		LinkBandwidth:      3e9,
		NodeWriteBandwidth: 500e6,
		AppendFixed:        20 * time.Microsecond,
	},
	LocalFS: DFSParams{
		SyncFixed:            900 * time.Microsecond,
		SyncCleanFixed:       60 * time.Microsecond,
		WriteBandwidth:       450e6,
		ReadFixed:            90 * time.Microsecond,
		ReadBandwidth:        520e6,
		MetaFixed:            60 * time.Microsecond,
		SyscallFixed:         800 * time.Nanosecond,
		MemBandwidth:         10e9,
		CacheCapacity:        256 << 20,
		DirtyHighWater:       64 << 20,
		WritebackInterval:    500 * time.Millisecond,
		WritebackThrottleMax: 2500 * time.Nanosecond,
	},
	Controller: ControllerConfig{
		Raft: RaftConfig{
			FsyncCost: 800 * time.Microsecond,
			// Single-threaded apply/response path of a ZooKeeper-class
			// service on the testbed's E5-2640v4 servers: ~8K linearizable
			// writes/s per ensemble once the log fsyncs are group-committed.
			ApplyCPU: 120 * time.Microsecond,
		},
		SessionTimeout: 600 * time.Millisecond,
	},
	Peer: PeerConfig{
		LendableMem: 1 << 30,
		GCInterval:  2 * time.Second,
		// The no-entry grace must outlast a worst-case open attempt against
		// a saturated controller — region setup succeeds immediately but the
		// ap-map update behind it can burn several 3 s proposal deadlines
		// before committing. Sweeping sooner frees a region the application
		// is about to write through. Retried setups re-arm the clock.
		GCGrace:  15 * time.Second,
		SetupCPU: 200 * time.Microsecond,
	},
	NCL: NCLConfig{
		Replication:       "mirror",
		DefaultRegionSize: 64 << 20,
		// ~6 GB/s single-core systematic RS encode (ISA-L-class GF(2^8)
		// SIMD kernels on the testbed's E5-2640v4).
		EncodeBandwidth: 6e9,
		RecordCPU:       900 * time.Nanosecond,
		CatchupCopyCPU:  10e9,
		ReadOverhead:    2 * time.Microsecond,
		LocalReadCPU:    300 * time.Nanosecond,
		SyncCPU:         200 * time.Nanosecond,
	},
	Apps: AppCosts{
		KVStore: KVStoreCosts{
			EncodeCPU:     600 * time.Nanosecond,
			ApplyCPU:      2500 * time.Nanosecond,
			GetCPU:        1800 * time.Nanosecond,
			MergeCPU:      200 * time.Nanosecond,
			SlowdownDelay: 200 * time.Microsecond,
		},
		RedStore: RedStoreCosts{
			OpCPU:          8600 * time.Nanosecond,
			SnapshotCopyBW: 8e9,
		},
		LiteDB: LiteDBCosts{
			TxnCPU:  170 * time.Microsecond,
			ReadCPU: 70 * time.Microsecond,
		},
		KVell: KVellCosts{
			PutCPU: 2 * time.Microsecond,
			GetCPU: 1500 * time.Nanosecond,
		},
	},
	NetLatency: 5 * time.Microsecond,
}

// CX4RoCE25 returns the paper-faithful baseline profile: Mellanox CX-4
// NICs on 25 Gb RoCE with CephFS on SATA SSDs, calibrated to the paper's
// measurements (see the provenance comment on the definition).
func CX4RoCE25() *Profile { return cx4RoCE25.clone() }

// Baseline is the profile every Default*() wrapper and nil-profile option
// resolves to: CX4RoCE25.
func Baseline() *Profile { return CX4RoCE25() }

// CX6RoCE100 is the faster-fabric variant: Mellanox CX-6 class NICs on
// 100 Gb RoCE. Storage and applications are unchanged so sweeps isolate
// the fabric axis (the performance-efficiency axis Hydra explores for
// resilient remote memory).
//
// Provenance: CX-6 Dx datasheets and published microbenchmarks — ~0.8 µs
// small-write latency (vs 1.5 µs on CX-4), ~4x line rate (100 Gb/s ⇒
// ~12 GB/s per QP), faster rkey programming on registration, and a
// lower-latency switch generation (2 µs one-way).
func CX6RoCE100() *Profile {
	p := CX4RoCE25()
	p.Name = "CX6RoCE100"
	p.Provenance = "Faster fabric: Mellanox CX-6 class / 100 Gb RoCE " +
		"(~0.8 us WR base, ~12 GB/s line rate); storage and apps unchanged."
	p.RDMA.WRBase = 800 * time.Nanosecond
	p.RDMA.Bandwidth = 12e9 // ~100 Gb/s
	p.RDMA.RegFixed = 1500 * time.Microsecond
	p.RDMA.RegBandwidth = 2.4e9
	p.RDMA.ConnectBase = 20 * time.Microsecond
	// Chain links ride the same fabric: a faster NIC raises per-link
	// bandwidth for extent appends even though the disks are unchanged.
	p.DFS.LinkBandwidth = 12e9
	p.NetLatency = 2 * time.Microsecond
	return p
}

// FastDFS is the NVMe-class storage variant: the disaggregated file
// system's replicas sit on NVMe flash instead of SATA SSDs (and the local
// comparison disk is NVMe too). The fabric is unchanged so sweeps isolate
// the storage axis.
//
// Provenance: datacenter NVMe-over-fabrics deployments — small replicated
// sync writes in the 300-500 µs range (vs 2.3 ms), ~2 GB/s shared write
// bandwidth, ~100 µs fetch latency.
func FastDFS() *Profile {
	p := CX4RoCE25()
	p.Name = "FastDFS"
	p.Provenance = "NVMe-class storage: dfs sync ~0.4 ms / 2 GB/s, " +
		"reads ~120 us / 3 GB/s; fabric and apps unchanged."
	p.DFS.SyncFixed = 400 * time.Microsecond
	p.DFS.SyncCleanFixed = 80 * time.Microsecond
	p.DFS.WriteBandwidth = 2e9
	p.DFS.ReadFixed = 120 * time.Microsecond
	p.DFS.ReadBandwidth = 3e9
	p.DFS.MetaFixed = 150 * time.Microsecond
	// NVMe storage nodes drain their append logs ~4x faster; the ack path
	// (links + memory commit) is fabric-bound and unchanged.
	p.DFS.NodeWriteBandwidth = 2e9
	p.LocalFS.SyncFixed = 150 * time.Microsecond
	p.LocalFS.SyncCleanFixed = 20 * time.Microsecond
	p.LocalFS.WriteBandwidth = 1.8e9
	p.LocalFS.ReadFixed = 40 * time.Microsecond
	p.LocalFS.ReadBandwidth = 2.5e9
	p.LocalFS.MetaFixed = 30 * time.Microsecond
	return p
}

// named maps profile names to constructors. Registration happens here so
// Names/ByName stay in sync with the constructors above.
var named = map[string]func() *Profile{
	"CX4RoCE25":  CX4RoCE25,
	"CX6RoCE100": CX6RoCE100,
	"FastDFS":    FastDFS,
}

// Names lists the built-in profile names, baseline first, rest sorted.
func Names() []string {
	out := []string{"CX4RoCE25"}
	var rest []string
	for name := range named {
		if name != "CX4RoCE25" {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// ByName returns a fresh copy of the named built-in profile.
func ByName(name string) (*Profile, bool) {
	mk, ok := named[name]
	if !ok {
		return nil, false
	}
	return mk(), true
}

// ErrUnknownProfile is wrapped by Resolve for unrecognized names.
var ErrUnknownProfile = fmt.Errorf("model: unknown profile")
