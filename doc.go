// Package splitft is a from-scratch Go reproduction of "SplitFT: Fault
// Tolerance for Disaggregated Datacenters via Remote Memory Logging"
// (Luo, Alagappan, Ganesan — EuroSys 2024).
//
// The system splits storage-centric applications' writes: large background
// writes (SSTables, snapshots, checkpoints) go straight to the
// disaggregated file system, while small synchronous log writes are made
// fault-tolerant within the compute layer by near-compute logs (NCL) —
// replication to spare memory on 2f+1 log peers via 1-sided RDMA writes.
//
// Everything the paper's evaluation depends on is implemented in this
// module, bottom to top: a deterministic discrete-event datacenter
// simulator (internal/simnet), simulated RDMA verbs (internal/rdma), a
// CephFS-like disaggregated file system (internal/dfs), a Raft-replicated
// ZooKeeper-style controller (internal/raft, internal/controller), log
// peers (internal/peer), the NCL library (internal/ncl), the SplitFT POSIX
// layer with the O_NCL flag (internal/core), the ported applications
// (internal/apps/...: three from the paper and a §6 no-log store, sharing
// one log discipline in internal/apps/applog and listed in the one table
// apps.Ports — DESIGN.md §13), a YCSB generator (internal/ycsb), a protocol model
// checker (internal/modelcheck), and the benchmark harness regenerating
// every table and figure of the paper (internal/bench, cmd/splitft-bench):
// one ordered registry of experiments, each returning rows in one schema
// (experiment, cell, metric, value, unit, clock — DESIGN.md §12), printed
// as one table and written as JSON only when `-out FILE` asks; one test,
// bench.TestBaselines, diffs fresh runs against the committed
// BENCH_*.json.
//
// Every layer emits deterministic spans on the virtual clock into
// internal/trace; the figures' breakdowns (Fig 1, Fig 11b, Table 3) are
// span queries over one collector. `splitft-bench -trace out.json <exp>`
// (and the examples' -trace flags) export Chrome trace-event JSON, and
// `splitft-bench trace <exp>` prints a per-(layer, op) aggregation table.
//
// All calibrated hardware constants live in internal/model's one Profile,
// model.Baseline(): the paper's testbed (CX4RoCE25). `splitft-bench
// calibrate` checks it against live micro-probes.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// simulation-substitution rationale, and EXPERIMENTS.md for paper-vs-
// measured results.
package splitft
