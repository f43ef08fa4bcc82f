package main

import (
	"fmt"
	"math/rand"
	"time"

	"splitft/internal/apps/kvstore"
	"splitft/internal/core"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// This file is the kvstore plumbing three workloads share: configuration,
// the timed put/get wrappers that open the benchmark's own spans, bulk load,
// and the crash -> recover -> read-back tail.

const kvAppID = "benchkv"

// rowBytes estimates the stored size of one YCSB row.
const rowBytes = ycsb.KeySize + ycsb.ValueSize + 16

// kvConfig mirrors the paper set-up for a dataset of `rows`: a memtable well
// below the dataset so reads reach the sstables, and a WAL region that holds
// one memtable with room for the pre-opened successor. rows == 0 keeps the
// store's defaults (4 MiB memtable, 8 MiB WAL).
func (e *env) kvConfig(rows int64) kvstore.Config {
	cfg := kvstore.DefaultConfig()
	cfg.KVStoreCosts = e.prof.Apps.KVStore
	cfg.Durability = kvstore.SplitFT
	if rows > 0 {
		mt := rows * rowBytes / 8
		if mt < 1<<20 {
			mt = 1 << 20
		}
		cfg.MemtableBytes = mt
		cfg.WALRegion = 2*mt + 1<<20
	}
	return cfg
}

// kvStore is an open kvstore plus the bookkeeping the checks need.
type kvStore struct {
	e    *env
	db   *kvstore.DB
	fs   *core.FS
	cfg  kvstore.Config
	led  *ledger
	acks gapTracker
	keys []string // key table: index -> key string

	base kvstore.Stats // counters at the start of the measured window
}

func keyTable(n int) []string {
	t := make([]string, n)
	for i := range t {
		t[i] = ycsb.Key(int64(i))
	}
	return t
}

// put writes value(tag, size) to key i inside an app span, recording the
// invoke and the ack in the ledger. The caller owns buf.
func (k *kvStore) put(p *simnet.Proc, i int32, tag uint64, size int, buf []byte) error {
	key := k.keys[i]
	val := valueFor(buf[:size], tag)
	k.led.invoke(key, tag, p.Now())
	sp := p.StartSpan("app", "kv.put")
	err := k.db.Put(p, key, val)
	p.EndSpan(sp)
	if err != nil {
		return err
	}
	now := p.Now()
	k.led.ack(key, tag, now)
	k.acks.ack(now)
	return nil
}

// get reads key i inside an app span.
func (k *kvStore) get(p *simnet.Proc, i int32) ([]byte, bool, error) {
	sp := p.StartSpan("app", "kv.get")
	v, ok, err := k.db.Get(p, k.keys[i])
	p.EndSpan(sp)
	return v, ok, err
}

// load writes rows [0, n) with `loaders` parallel procs on the app node. Row
// j carries tag loadTag+j.
const loadTag = uint64(1) << 56

func (k *kvStore) load(p *simnet.Proc, n int) error {
	const loaders = 16
	sizes := writeSizes(k.e.rng(99), n)
	var wg simnet.WaitGroup
	wg.Add(loaders)
	var firstErr error
	for l := 0; l < loaders; l++ {
		l := l
		p.GoOn(k.e.c.AppNode, fmt.Sprintf("loader%d", l), func(lp *simnet.Proc) {
			defer wg.Done(lp)
			buf := make([]byte, 128)
			for j := l; j < n; j += loaders {
				if err := k.put(lp, int32(j), loadTag+uint64(j), int(sizes[j]), buf); err != nil && firstErr == nil {
					firstErr = err
					return
				}
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// openKV creates the store under fencing token 0.
func (e *env) openKV(p *simnet.Proc, appID string, cfg kvstore.Config, keys []string) (*kvStore, error) {
	fs, err := e.c.NewFS(p, appID, 0)
	if err != nil {
		return nil, err
	}
	db, err := kvstore.Open(p, fs, cfg)
	if err != nil {
		return nil, err
	}
	return &kvStore{e: e, db: db, fs: fs, cfg: cfg, led: newLedger(), keys: keys}, nil
}

// mark snapshots the store's counters at the start of the measured window.
func (k *kvStore) mark() { k.base = k.db.Stats() }

// account adds the store's counters since mark to the result.
func (k *kvStore) account() {
	st, r := k.db.Stats(), &k.e.res
	r.kvOps += st.Ops - k.base.Ops
	r.kvBatches += st.Batches - k.base.Batches
	r.flushes += st.Flushes - k.base.Flushes
	r.compacts += st.Compactions - k.base.Compactions
	r.stall += (st.StallTime + st.SlowdownTime) - (k.base.StallTime + k.base.SlowdownTime)
}

// walLog returns the ncl log behind the store's active WAL.
func (k *kvStore) walLog() *ncl.Log {
	if hl, ok := k.db.WAL().(interface{ Log() *ncl.Log }); ok {
		return hl.Log()
	}
	return nil
}

// topUp writes filler rows (keys beyond the workload's range) until the
// active memtable — and so the WAL a crash leaves behind — sits at a fixed
// fill level, then waits for background flushes to settle. Crashing at a
// fixed WAL size makes recovery_ms comparable across seeds instead of a
// function of where in the rotation cycle the window happened to end.
func (k *kvStore) topUp(p *simnet.Proc, from int32) error {
	p.Sleep(kvSettle)
	lo, hi := k.cfg.MemtableBytes*70/100, k.cfg.MemtableBytes*80/100
	buf := make([]byte, ycsb.ValueSize)
	filler := int32(len(k.keys)) - 1 - from // the last key is kept for the first write after recovery
	for n := int32(0); ; n++ {
		if mt := k.db.Stats().MemtableBytes; mt >= lo && mt < hi {
			break
		}
		if err := k.put(p, from+n%filler, 2*loadTag+uint64(n), ycsb.ValueSize, buf); err != nil {
			return err
		}
	}
	p.Sleep(kvSettle)
	return nil
}

// kvSettle is how long the tail idles before it crashes the store, so that
// a flush or a background WAL pre-open (three 32 MiB registrations in the
// largest configuration) has finished and every seed crashes the same set
// of files.
const kvSettle = 500 * time.Millisecond

// crashRecover runs the common tail (env.crashRecover) for a kvstore: recover
// the store, read key 0, write the last filler key (which no check reads).
func (k *kvStore) crashRecover(p *simnet.Proc, appID string, fencing int64) error {
	d, err := k.e.crashRecover(p, appID, fencing,
		func(fs *core.FS) (err error) {
			k.fs = fs
			k.db, err = kvstore.Recover(p, fs, k.cfg)
			return err
		},
		func() error { _, _, err := k.get(p, 0); return err },
		func() error {
			last := int32(len(k.keys) - 1)
			return k.put(p, last, loadTag+uint64(last)+uint64(fencing), ycsb.ValueSize, make([]byte, ycsb.ValueSize))
		})
	if err == nil {
		k.e.res.kvRecov = append(k.e.res.kvRecov, d)
	}
	return err
}

// readBack checks every key the store's ledger has seen.
func (k *kvStore) readBack(p *simnet.Proc) error { return k.e.readBack(p, k.led, k.keys, k.get) }

// writeSizes draws n value sizes with mean ycsb.ValueSize from a two-mode
// distribution whose skew comes from the seed: a third of the values sit
// 2s below the mean, two thirds s above, each +-8 bytes. An uncontended write
// costs exactly what the cost model charges for its size, so with one fixed
// size distribution the median write latency would be the same number on
// every seed; moving the median size (96+s bytes) while keeping the mean
// keeps the metric a measurement and leaves bytes per op unchanged.
func writeSizes(rng *rand.Rand, n int) []uint8 {
	skew := 2 + rng.Intn(9)
	s := make([]uint8, n)
	for i := range s {
		base := ycsb.ValueSize + skew
		if rng.Intn(3) == 0 {
			base = ycsb.ValueSize - 2*skew
		}
		s[i] = uint8(base - 8 + rng.Intn(17))
	}
	return s
}
