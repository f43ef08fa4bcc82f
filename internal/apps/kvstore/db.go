// Package kvstore is the RocksDB-style LSM key-value store ported to
// SplitFT (§4.7). Its write path mirrors RocksDB's: concurrent updates are
// group-committed by a leader into one write-ahead-log append, applied to an
// in-memory memtable, and acknowledged; memtables are flushed to sorted
// tables on the dfs in the background and the corresponding WAL is deleted
// (delete-based log reclamation, Table 2). L0 tables are compacted into L1.
//
// The port required what the paper reports for RocksDB: passing O_NCL when
// opening WAL files. Every other code path is identical across the three
// evaluated configurations:
//
//	Weak    — WAL on the dfs, never fsynced (buffered; lost on crash)
//	Strong  — WAL on the dfs, fsynced once per group-commit batch
//	SplitFT — WAL in near-compute logs (replicated synchronously)
package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"splitft/internal/apps/applog"
	"splitft/internal/core"
	"splitft/internal/model"
	"splitft/internal/simnet"
)

// Durability selects the evaluation configuration (see applog).
type Durability = applog.Durability

// SplitFT routes WAL files to near-compute logs via O_NCL.
const SplitFT = applog.SplitFT

const (
	// l0SlowdownTrigger delays each batch once L0 holds this many tables.
	l0SlowdownTrigger = 8
	// l0CompactTrigger starts a compaction when L0 reaches this many tables.
	l0CompactTrigger = 4
	// maxImmutables stalls writers when this many unflushed memtables pile up.
	maxImmutables = 4
	// retryDelay is how long a failed flush or compaction waits before it
	// tries again. It waits out a dfs fault (storage nodes down, no chain
	// can form): the memtables stay in memory meanwhile, and writers stall
	// at maxImmutables until a flush lands.
	retryDelay = 10 * time.Millisecond
)

// Config tunes the store.
type Config struct {
	Dir        string
	Durability Durability
	// MemtableBytes triggers memtable rotation + WAL switch.
	MemtableBytes int64
	// WALRegion is the ncl region capacity per WAL (>= MemtableBytes plus
	// framing overhead).
	WALRegion int64
	// KVStoreCosts is the per-operation CPU cost model; the constants live
	// in internal/model and the fields promote (cfg.EncodeCPU etc.).
	model.KVStoreCosts
}

// DefaultConfig returns the configuration used by the benchmarks, scaled to
// simulation-sized datasets; CPU costs come from the baseline profile.
func DefaultConfig() Config {
	return Config{
		Dir:           "/kv",
		Durability:    SplitFT,
		MemtableBytes: 4 << 20,
		WALRegion:     8 << 20,
		KVStoreCosts:  model.Baseline().Apps.KVStore,
	}
}

// memtable is the mutable in-memory write buffer.
type memtable struct {
	data  map[string]entry
	bytes int64
	// walPath is the log file backing this memtable.
	walPath string
}

func newMemtable(walPath string) *memtable {
	return &memtable{data: make(map[string]entry), walPath: walPath}
}

func (m *memtable) put(e entry) {
	m.data[e.key] = e
	m.bytes += int64(len(e.key) + len(e.value) + 16)
}

// sortedEntries is a memtable's content in table order.
func sortedEntries(data map[string]entry) []entry {
	out := make([]entry, 0, len(data))
	for _, k := range applog.SortedKeys(data) {
		out = append(out, data[k])
	}
	return out
}

type writeReq struct {
	ent  entry
	done bool
	err  error
}

// DB is an open store instance.
type DB struct {
	fs   *core.FS
	node *simnet.Node
	cfg  Config

	mu      simnet.Mutex
	qCond   *simnet.Cond
	flush   *simnet.Cond // flusher wake + stall wait
	compact *simnet.Cond

	queue        []*writeReq
	leaderActive bool
	// reqFree recycles writeReqs and spareQueue the queue's backing array:
	// the group-commit path runs once per op, and the put rate is high enough
	// that one allocation per op shows up in the perf alloc gate.
	reqFree    []*writeReq
	spareQueue []*writeReq

	mem     *memtable
	imm     []*memtable
	wal     core.File
	fileSeq int
	// nextWAL is pre-opened in the background once the memtable is half
	// full, so rotation never blocks the commit leader on NCL region setup
	// (RocksDB's log-file preallocation/recycling).
	nextWAL     core.File
	nextWALPath string
	preparing   bool
	prepared    *simnet.Cond // signalled when preparing clears

	l0 []*ssTable // newest first
	l1 []*ssTable // sorted, non-overlapping (kept as one run)
	// tables is the read path's lookup order (l0 newest-first, then l1) as
	// an immutable snapshot: rebuilt via retable on every table-set change,
	// never mutated in place, so Get can release mu without copying it.
	tables []*ssTable

	closed bool

	// Stats.
	Batches      int64
	Ops          int64
	StallTime    time.Duration
	Compactions  int64
	Flushes      int64
	SlowdownTime time.Duration
}

// Open creates a fresh store (no recovery; use Recover for restart paths).
func Open(p *simnet.Proc, fs *core.FS, cfg Config) (*DB, error) {
	db := newDB(fs, cfg)
	if err := db.rotateWAL(p); err != nil {
		return nil, err
	}
	db.startBackground(p)
	return db, nil
}

func newDB(fs *core.FS, cfg Config) *DB {
	db := &DB{fs: fs, node: fs.Node(), cfg: cfg}
	db.qCond = simnet.NewCond(&db.mu)
	db.flush = simnet.NewCond(&db.mu)
	db.compact = simnet.NewCond(&db.mu)
	db.prepared = simnet.NewCond(&db.mu)
	return db
}

func (db *DB) startBackground(p *simnet.Proc) {
	p.GoOn(db.node, "kv-flusher", db.flusherLoop)
	p.GoOn(db.node, "kv-compactor", db.compactorLoop)
}

// walFormat names WAL number %d; Recover finds the survivors by it.
func walFormat(dir string) string { return dir + "/wal-%06d.log" }

func (db *DB) walPath(n int) string { return fmt.Sprintf(walFormat(db.cfg.Dir), n) }
func (db *DB) sstPath(level, n int) string {
	return fmt.Sprintf("%s/L%d-%06d.sst", db.cfg.Dir, level, n)
}

// openWAL creates WAL file path: the entire SplitFT port is the O_NCL bit
// LogFlags sets (plus the append-only hint).
func (db *DB) openWAL(p *simnet.Proc, path string) (core.File, error) {
	return db.fs.OpenFile(p, path, db.cfg.Durability.LogFlags(true), db.cfg.WALRegion)
}

// rotateWAL opens a fresh WAL and memtable; caller must hold no lock or the
// write lock consistently (called at open and from the commit path).
func (db *DB) rotateWAL(p *simnet.Proc) error {
	db.fileSeq++
	path := db.walPath(db.fileSeq)
	w, err := db.openWAL(p, path)
	if err != nil {
		return err
	}
	db.wal = w
	db.mem = newMemtable(path)
	return nil
}

// Put inserts or updates a key.
func (db *DB) Put(p *simnet.Proc, key string, value []byte) error {
	v := make([]byte, len(value))
	copy(v, value)
	return db.write(p, entry{key: key, value: v})
}

// Delete removes a key (tombstone).
func (db *DB) Delete(p *simnet.Proc, key string) error {
	return db.write(p, entry{key: key, del: true})
}

// write enqueues the update and runs the group-commit protocol: the first
// waiter becomes leader, takes the whole queue as one batch, appends a
// single WAL record (fsynced or NCL-recorded per configuration), applies
// the batch to the memtable, and wakes everyone.
func (db *DB) write(p *simnet.Proc, e entry) error {
	db.mu.Lock(p)
	if db.closed {
		db.mu.Unlock(p)
		return errors.New("kvstore: closed")
	}
	var w *writeReq
	if n := len(db.reqFree); n > 0 {
		w = db.reqFree[n-1]
		db.reqFree = db.reqFree[:n-1]
		*w = writeReq{ent: e}
	} else {
		w = &writeReq{ent: e}
	}
	if db.queue == nil && db.spareQueue != nil {
		db.queue, db.spareQueue = db.spareQueue, nil
	}
	db.queue = append(db.queue, w)
	for {
		if w.done {
			err := w.err
			*w = writeReq{}
			db.reqFree = append(db.reqFree, w)
			db.mu.Unlock(p)
			return err
		}
		if db.leaderActive {
			db.qCond.Wait(p)
			continue
		}
		db.leaderActive = true
		batch := db.queue
		db.queue = nil
		db.mu.Unlock(p)

		err := db.commitBatch(p, batch)

		db.mu.Lock(p)
		for _, b := range batch {
			b.done = true
			b.err = err
		}
		db.leaderActive = false
		db.Batches++
		db.Ops += int64(len(batch))
		if db.spareQueue == nil {
			db.spareQueue = batch[:0]
		}
		db.qCond.Broadcast(p)
	}
}

func (db *DB) commitBatch(p *simnet.Proc, batch []*writeReq) error {
	// Serialize (leader CPU).
	p.Sleep(time.Duration(len(batch)) * db.cfg.EncodeCPU)
	rec := applog.Encode(len(batch), func(i int) applog.Op {
		e := &batch[i].ent
		return applog.Op{Key: e.key, Value: e.value, Del: e.del}
	})

	// One log write per batch; durability per configuration.
	if _, err := db.wal.Write(p, rec); err != nil {
		return err
	}
	if err := db.cfg.Durability.Commit(p, db.wal); err != nil {
		return err
	}

	// Apply to the memtable.
	p.Sleep(time.Duration(len(batch)) * db.cfg.ApplyCPU)
	for _, w := range batch {
		db.mem.put(w.ent)
	}

	// Backpressure: slow down when L0 piles up; stall when flushing lags.
	db.mu.Lock(p)
	if len(db.l0) >= l0SlowdownTrigger {
		db.mu.Unlock(p)
		p.Sleep(db.cfg.SlowdownDelay)
		db.SlowdownTime += db.cfg.SlowdownDelay
		db.mu.Lock(p)
	}
	for len(db.imm) >= maxImmutables && !db.closed {
		start := p.Now()
		db.flush.Wait(p)
		db.StallTime += p.Now() - start
	}
	// Prepare the next WAL off the critical path once half full.
	if db.mem.bytes >= db.cfg.MemtableBytes/2 && db.nextWAL == nil && !db.preparing {
		db.preparing = true
		db.fileSeq++
		seq := db.fileSeq
		p.GoOn(db.node, "kv-wal-prep", func(wp *simnet.Proc) {
			path := db.walPath(seq)
			w, err := db.openWAL(wp, path)
			db.mu.Lock(wp)
			db.preparing = false
			db.prepared.Broadcast(wp)
			if err == nil {
				db.nextWAL = w
				db.nextWALPath = path
			}
			db.mu.Unlock(wp)
		})
	}
	// Rotate if the memtable is full.
	var err error
	if db.mem.bytes >= db.cfg.MemtableBytes {
		// A WAL still being prepared was numbered before one opened now would
		// be, and recovery replays in number order: wait for it, never race it.
		for db.preparing {
			db.prepared.Wait(p)
		}
		db.imm = append(db.imm, db.mem)
		oldWAL := db.wal
		if db.nextWAL != nil {
			db.wal = db.nextWAL
			db.mem = newMemtable(db.nextWALPath)
			db.nextWAL = nil
			db.mu.Unlock(p)
		} else {
			db.mu.Unlock(p)
			err = db.rotateWAL(p)
		}
		_ = oldWAL.Close(p) // kept durable/recoverable until the flush deletes it
		db.mu.Lock(p)
		db.flush.Broadcast(p)
	}
	db.mu.Unlock(p)
	return err
}

// Get returns the value for key, if present.
func (db *DB) Get(p *simnet.Proc, key string) ([]byte, bool, error) {
	db.node.CPU().Use(p, db.cfg.GetCPU)
	db.mu.Lock(p)
	// Memtable, then immutables newest-first.
	if e, ok := db.mem.data[key]; ok {
		db.mu.Unlock(p)
		return e.value, !e.del, nil
	}
	for i := len(db.imm) - 1; i >= 0; i-- {
		if e, ok := db.imm[i].data[key]; ok {
			db.mu.Unlock(p)
			return e.value, !e.del, nil
		}
	}
	tables := db.tables // immutable snapshot: safe to walk unlocked
	db.mu.Unlock(p)
	for _, t := range tables {
		v, found, deleted, err := t.get(p, key)
		if err != nil {
			return nil, false, err
		}
		if found {
			return v, !deleted, nil
		}
	}
	return nil, false, nil
}

// retable rebuilds the immutable lookup snapshot after a table-set change.
// Caller holds mu (or has exclusive access, as during recovery).
func (db *DB) retable() {
	t := make([]*ssTable, 0, len(db.l0)+len(db.l1))
	t = append(t, db.l0...)
	t = append(t, db.l1...)
	db.tables = t
}

// flusherLoop writes immutable memtables to L0 tables and deletes their
// WALs — the background "large write then reclaim the log" cycle of §3.
func (db *DB) flusherLoop(p *simnet.Proc) {
	for {
		db.mu.Lock(p)
		for len(db.imm) == 0 && !db.closed {
			db.flush.Wait(p)
		}
		if db.closed {
			db.mu.Unlock(p)
			return
		}
		m := db.imm[0]
		db.fileSeq++
		path := db.sstPath(0, db.fileSeq)
		db.mu.Unlock(p)

		t, err := writeSSTable(p, db.fs, path, sortedEntries(m.data))
		if err != nil {
			p.Sleep(retryDelay)
			continue
		}
		db.mu.Lock(p)
		db.imm = db.imm[1:]
		db.l0 = append([]*ssTable{t}, db.l0...)
		db.retable()
		db.Flushes++
		trigger := len(db.l0) >= l0CompactTrigger
		db.flush.Broadcast(p)
		if trigger {
			db.compact.Signal(p)
		}
		db.mu.Unlock(p)
		// The memtable is durable as a table; delete its log (reclaim).
		db.fs.Unlink(p, m.walPath) //nolint:errcheck
	}
}

// compactorLoop merges all of L0 with L1 into a fresh L1 run.
func (db *DB) compactorLoop(p *simnet.Proc) {
	for {
		db.mu.Lock(p)
		for len(db.l0) < l0CompactTrigger && !db.closed {
			db.compact.Wait(p)
		}
		if db.closed {
			db.mu.Unlock(p)
			return
		}
		inputsL0 := append([]*ssTable(nil), db.l0...)
		inputsL1 := append([]*ssTable(nil), db.l1...)
		db.mu.Unlock(p)

		merged, err := db.mergeTables(p, inputsL0, inputsL1)
		if err != nil {
			p.Sleep(retryDelay)
			continue
		}
		db.fileSeq++
		path := db.sstPath(1, db.fileSeq)
		t, err := writeSSTable(p, db.fs, path, merged)
		if err != nil {
			p.Sleep(retryDelay)
			continue
		}
		db.mu.Lock(p)
		db.l0 = db.l0[:len(db.l0)-len(inputsL0)]
		db.l1 = []*ssTable{t}
		db.retable()
		db.Compactions++
		db.mu.Unlock(p)
		for _, in := range append(inputsL0, inputsL1...) {
			db.fs.Unlink(p, in.path) //nolint:errcheck
		}
	}
}

// mergeTables produces the sorted union with newest-wins semantics.
// inputsL0 is newest-first; L1 is oldest. Tables are scanned oldest first,
// and each L0 table's scan is charged its merge CPU.
func (db *DB) mergeTables(p *simnet.Proc, inputsL0, inputsL1 []*ssTable) ([]entry, error) {
	// runs in merge order, newest first: L0, then L1 (of which a later
	// table is the newer).
	runs := make([][]entry, len(inputsL0)+len(inputsL1))
	for i, t := range inputsL1 {
		ents, err := t.scanAll(p)
		if err != nil {
			return nil, err
		}
		runs[len(runs)-1-i] = ents
	}
	for i := len(inputsL0) - 1; i >= 0; i-- {
		ents, err := inputsL0[i].scanAll(p)
		if err != nil {
			return nil, err
		}
		// Charge merge CPU coarsely per table.
		p.Sleep(time.Duration(len(ents)) * db.cfg.MergeCPU)
		runs[i] = ents
	}
	return mergeRuns(runs), nil
}

// mergeRuns merges sorted runs of unique keys, given newest first, into one
// sorted run: of the entries for one key the newest run's wins, and a
// winning tombstone is dropped (a full merge has nothing older to shadow).
func mergeRuns(runs [][]entry) []entry {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	out := make([]entry, 0, n)
	for {
		var win *entry
		for i := range runs {
			if len(runs[i]) > 0 && (win == nil || runs[i][0].key < win.key) {
				win = &runs[i][0]
			}
		}
		if win == nil {
			return out
		}
		e := *win
		for i := range runs {
			if len(runs[i]) > 0 && runs[i][0].key == e.key {
				runs[i] = runs[i][1:]
			}
		}
		if !e.del {
			out = append(out, e)
		}
	}
}

// Close stops background work (the store remains recoverable).
func (db *DB) Close(p *simnet.Proc) {
	db.mu.Lock(p)
	db.closed = true
	db.flush.Broadcast(p)
	db.compact.Signal(p)
	db.qCond.Broadcast(p)
	db.mu.Unlock(p)
}

// ---- Recovery ----

// Recover reconstructs a store after an application-server crash: open the
// surviving tables from the dfs, then replay the WALs. In SplitFT mode the
// WALs are recovered from NCL peers; in DFT modes, from the dfs (weak mode
// recovers only what writeback happened to flush — the data-loss window the
// paper's Table 1 guarantees column is about).
func Recover(p *simnet.Proc, fs *core.FS, cfg Config) (*DB, error) {
	db := newDB(fs, cfg)

	// Tables: keep only complete ones, newest L1 generation wins.
	var l0 []*ssTable
	var l1 []*ssTable
	maxSeq := 0
	for _, path := range fs.ListDFS(cfg.Dir + "/") {
		if !strings.HasSuffix(path, ".sst") {
			continue
		}
		t, err := openSSTable(p, fs, path)
		if err != nil {
			continue // incomplete flush/compaction output: ignore
		}
		var level, n int
		if _, err := fmt.Sscanf(path[len(cfg.Dir)+1:], "L%d-%06d.sst", &level, &n); err != nil {
			continue
		}
		if n > maxSeq {
			maxSeq = n
		}
		if level == 0 {
			l0 = append(l0, t)
		} else {
			l1 = append(l1, t)
		}
	}
	// L0 newest first by sequence in the file name.
	sort.Slice(l0, func(i, j int) bool { return l0[i].path > l0[j].path })
	// Only the newest complete L1 run is current.
	sort.Slice(l1, func(i, j int) bool { return l1[i].path > l1[j].path })
	if len(l1) > 1 {
		for _, stale := range l1[1:] {
			fs.Unlink(p, stale.path) //nolint:errcheck
		}
		l1 = l1[:1]
	}
	db.l0 = l0
	db.l1 = l1

	// WALs: ncl files in SplitFT mode, dfs files otherwise.
	wals, err := cfg.Durability.Survivors(p, fs, walFormat(cfg.Dir))
	if err != nil {
		return nil, err
	}
	if n := len(wals); n > 0 && wals[n-1].Seq > maxSeq {
		maxSeq = wals[n-1].Seq
	}
	db.fileSeq = maxSeq

	// Replay WALs oldest-to-newest into fresh memtables, then flush them to
	// tables and reclaim the logs, ending with one empty memtable + WAL. A
	// newest WAL that is empty — the successor the crashed instance had
	// pre-opened and never written — is that WAL: recovering it only to
	// release it and set up another would cost four controller round trips
	// and a group of regions more.
	for i, wal := range wals {
		f, err := cfg.Durability.ReopenSurvivor(p, fs, wal.Path)
		if err != nil {
			return nil, fmt.Errorf("kvstore: replay wal %s: %w", wal.Path, err)
		}
		if f == nil {
			continue // released by the crashed instance: flushed already
		}
		data, err := applog.ReadLog(p, f)
		if err == nil && len(data) == 0 && i == len(wals)-1 {
			db.wal, db.mem = f, newMemtable(wal.Path)
			break
		}
		f.Close(p) //nolint:errcheck // only replayed
		if err != nil {
			return nil, fmt.Errorf("kvstore: replay wal %s: %w", wal.Path, err)
		}
		mem := newMemtable(wal.Path)
		applog.Scan(data, func(o applog.Op) { mem.put(entry{key: o.Key, value: o.Value, del: o.Del}) })
		if len(mem.data) > 0 {
			db.fileSeq++
			t, err := writeSSTable(p, fs, db.sstPath(0, db.fileSeq), sortedEntries(mem.data))
			if err != nil {
				return nil, err
			}
			db.l0 = append([]*ssTable{t}, db.l0...)
		}
		// The memtable is durable as a table: only now is its log disposable.
		fs.Unlink(p, wal.Path) //nolint:errcheck
	}
	if db.wal == nil {
		if err := db.rotateWAL(p); err != nil {
			return nil, err
		}
	}
	db.retable()
	db.startBackground(p)
	return db, nil
}

// Stats snapshot for benches.
type Stats struct {
	Batches, Ops         int64
	Flushes, Compactions int64
	StallTime            time.Duration
	SlowdownTime         time.Duration
	L0Tables, L1Tables   int
	MemtableBytes        int64
}

// WAL returns the active write-ahead-log file (failure-injection benches
// use it to find the log's current NCL peers).
func (db *DB) WAL() core.File { return db.wal }

// Stats returns a consistent snapshot of internal counters.
func (db *DB) Stats() Stats {
	return Stats{
		Batches: db.Batches, Ops: db.Ops,
		Flushes: db.Flushes, Compactions: db.Compactions,
		StallTime: db.StallTime, SlowdownTime: db.SlowdownTime,
		L0Tables: len(db.l0), L1Tables: len(db.l1),
		MemtableBytes: db.mem.bytes,
	}
}
