package model

import "time"

// cx4RoCE25 is the paper-faithful baseline and the only cost model, built
// once and cloned on every request so callers can mutate their copy freely.
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
	RDMA: RDMAParams{
		WRBase:       1500 * time.Nanosecond,
		Bandwidth:    3e9, // ~25 Gb/s RoCE
		RegFixed:     2 * time.Millisecond,
		RegBandwidth: 1.2e9,
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
		// models (dfs's nodeWriteBandwidth), but off the ack path
		// (DXRAM-style backup logging), so a
		// 64 MB append is bounded by client egress (~21 ms) instead of the
		// shared 500 MB/s pipe plus sync round trip (~137 ms).
		ExtentNodes:   16,
		ExtentSize:    4 << 20,
		ChainLength:   3,
		ChainFrame:    512 << 10,
		ChainWindow:   8,
		LinkBandwidth: 3e9,
		AppendFixed:   20 * time.Microsecond,
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

// Baseline returns a fresh copy of the one cost model, the paper's testbed.
// Every Default*() wrapper, and every option whose Profile is nil, resolves
// to it; a test or experiment that varies a field changes its own copy.
func Baseline() *Profile { return cx4RoCE25.clone() }
