package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/simnet"
)

func testConfig(d Durability) Config {
	cfg := DefaultConfig()
	cfg.Durability = d
	cfg.MemtableBytes = 64 << 10 // small so rotation/flush paths exercise
	cfg.WALRegion = 256 << 10
	return cfg
}

// horizon bounds every store script in virtual time. The store's writer,
// flusher and compactor wait on their conds alone, so a lost wake-up leaves
// the body blocked: the horizon fails it at once, where harness.Run's 24 h
// would carry the background timers on for minutes of host time.
const horizon = 30 * time.Second

func withDB(t *testing.T, seed int64, d Durability, fn func(p *simnet.Proc, c *harness.Cluster, db *DB)) {
	t.Helper()
	c := harness.New(harness.Options{Seed: seed, NumPeers: 4})
	c.Sim.Go("horizon", func(p *simnet.Proc) {
		p.Sleep(horizon)
		c.Sim.Stop()
	})
	done := false
	err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "kvapp", 0)
		if err != nil {
			return err
		}
		db, err := Open(p, fs, testConfig(d))
		if err != nil {
			return err
		}
		fn(p, c, db)
		done = true
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !done && !t.Failed() {
		t.Fatalf("store script still blocked at the %v horizon", horizon)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	withDB(t, 2, SplitFT, func(p *simnet.Proc, c *harness.Cluster, db *DB) {
		var wg simnet.WaitGroup
		const writers, each = 16, 30
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			w := w
			p.GoOn(c.AppNode, fmt.Sprintf("writer%d", w), func(wp *simnet.Proc) {
				for i := 0; i < each; i++ {
					db.Put(wp, fmt.Sprintf("k%02d-%03d", w, i), []byte("v"))
				}
				wg.Done(wp)
			})
		}
		wg.Wait(p)
		if db.Ops != writers*each {
			t.Fatalf("ops = %d, want %d", db.Ops, writers*each)
		}
		if db.Batches >= db.Ops {
			t.Fatalf("no batching: %d batches for %d ops", db.Batches, db.Ops)
		}
		t.Logf("batches=%d ops=%d (%.1f ops/batch)", db.Batches, db.Ops, float64(db.Ops)/float64(db.Batches))
	})
}

func TestRotationFlushAndLogReclaim(t *testing.T) {
	withDB(t, 3, SplitFT, func(p *simnet.Proc, c *harness.Cluster, db *DB) {
		val := bytes.Repeat([]byte("v"), 100)
		for i := 0; i < 3000; i++ { // ~370KB >> 64KB memtable
			if err := db.Put(p, fmt.Sprintf("user%06d", i), val); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		p.Sleep(2 * time.Second) // flushes complete
		st := db.Stats()
		if st.Flushes == 0 {
			t.Fatal("no memtable flush happened")
		}
		// Old WALs were reclaimed: only the active WAL (plus possibly one
		// pre-allocated next WAL) remains in NCL.
		names, err := db.fs.ListNCL(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) < 1 || len(names) > 2 {
			t.Fatalf("ncl files = %v, want the active WAL (+ optional preallocated one)", names)
		}
		// SSTables exist on the dfs.
		if n := len(db.fs.ListDFS("/kv/")); n < 1 {
			t.Fatalf("dfs files = %d", n)
		}
		// Everything still readable (memtable + L0 + L1 paths).
		for _, i := range []int{0, 1234, 2999} {
			v, ok, err := db.Get(p, fmt.Sprintf("user%06d", i))
			if err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("get after flush: %v %v", ok, err)
			}
		}
	})
}

func TestCompactionPreservesData(t *testing.T) {
	withDB(t, 4, SplitFT, func(p *simnet.Proc, c *harness.Cluster, db *DB) {
		val := bytes.Repeat([]byte("x"), 100)
		for i := 0; i < 6000; i++ {
			db.Put(p, fmt.Sprintf("user%06d", i%2000), val) // overwrites
		}
		p.Sleep(3 * time.Second)
		st := db.Stats()
		if st.Compactions == 0 {
			t.Fatal("no compaction happened")
		}
		for _, i := range []int{0, 999, 1999} {
			v, ok, err := db.Get(p, fmt.Sprintf("user%06d", i))
			if err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("get after compaction: %v %v", ok, err)
			}
		}
	})
}

func TestDeleteTombstones(t *testing.T) {
	withDB(t, 5, SplitFT, func(p *simnet.Proc, c *harness.Cluster, db *DB) {
		db.Put(p, "doomed", []byte("v"))
		val := bytes.Repeat([]byte("f"), 120)
		for i := 0; i < 1000; i++ { // push "doomed" into an sstable
			db.Put(p, fmt.Sprintf("filler%06d", i), val)
		}
		db.Delete(p, "doomed")
		if _, ok, _ := db.Get(p, "doomed"); ok {
			t.Fatal("deleted key still visible")
		}
		for i := 0; i < 3000; i++ { // force flush + compaction of the tombstone
			db.Put(p, fmt.Sprintf("filler%06d", i), val)
		}
		p.Sleep(3 * time.Second)
		if _, ok, _ := db.Get(p, "doomed"); ok {
			t.Fatal("deleted key resurrected by compaction")
		}
	})
}

// A writer stalled at maxImmutables resumes when the flusher pops a
// memtable: the stall waits on the flush cond, and nothing else wakes it.
func TestStalledWriterResumesAfterFlush(t *testing.T) {
	withDB(t, 6, SplitFT, func(p *simnet.Proc, c *harness.Cluster, db *DB) {
		// Sixteen writers group-commit 4 KB values, and every storage node
		// sits 2 ms further from the app: memtables fill faster than the
		// flusher writes tables.
		for _, sn := range c.StorageNodes {
			c.Sim.Net().SetLinkLatency(c.AppNode, sn, 2*time.Millisecond)
		}
		val := bytes.Repeat([]byte("s"), 4<<10)
		const writers, each = 16, 40 // ~2.6 MB, 40 memtables
		var wg simnet.WaitGroup
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			p.GoOn(c.AppNode, fmt.Sprintf("writer%d", w), func(wp *simnet.Proc) {
				defer wg.Done(wp)
				for i := 0; i < each; i++ {
					if err := db.Put(wp, fmt.Sprintf("k%02d-%03d", w, i), val); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			})
		}
		wg.Wait(p)
		if db.StallTime == 0 {
			t.Fatal("no writer stalled at maxImmutables")
		}
		for _, k := range []string{"k00-000", "k07-020", "k15-039"} {
			if v, ok, err := db.Get(p, k); err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("get %s: %v %v", k, ok, err)
			}
		}
	})
}

// A flush that fails is retried after retryDelay until it lands. With every
// storage node isolated no extent chain can form: writers fill the
// immutable memtables and stall. Once the nodes are back, the retried
// flushes land, the store accepts writes again and its tables hold them.
func TestFlushRetriesUntilStorageReturns(t *testing.T) {
	withDB(t, 7, SplitFT, func(p *simnet.Proc, c *harness.Cluster, db *DB) {
		net := c.Sim.Net()
		for _, sn := range c.StorageNodes {
			net.Isolate(sn)
		}
		val := bytes.Repeat([]byte("r"), 1000)
		const n = 1000 // ~1 MB, 15 memtables
		var wg simnet.WaitGroup
		wg.Add(1)
		p.GoOn(c.AppNode, "writer", func(wp *simnet.Proc) {
			defer wg.Done(wp)
			for i := 0; i < n; i++ {
				if err := db.Put(wp, fmt.Sprintf("user%06d", i), val); err != nil {
					t.Errorf("put %d: %v", i, err)
					return
				}
			}
		})
		p.Sleep(2 * time.Second)
		if db.Flushes != 0 || len(db.imm) < maxImmutables || db.Ops >= n {
			t.Fatalf("with storage cut off: %d flushes, %d immutables, %d of %d ops", db.Flushes, len(db.imm), db.Ops, n)
		}
		for _, sn := range c.StorageNodes {
			net.Unisolate(sn)
		}
		wg.Wait(p)
		for i := 0; i < n; i++ {
			if v, ok, err := db.Get(p, fmt.Sprintf("user%06d", i)); err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("get user%06d: %v %v", i, ok, err)
			}
		}
		// The first memtable filled while storage was cut off is a table now.
		for _, tb := range db.tables {
			if _, found, _, err := tb.get(p, "user000000"); err != nil {
				t.Fatalf("table %s: %v", tb.path, err)
			} else if found {
				return
			}
		}
		t.Fatal("no table holds a key written while storage was cut off")
	})
}

// ---- sstable unit tests ----

func sstFixture(t *testing.T, fn func(p *simnet.Proc, fs *core.FS)) {
	t.Helper()
	c := harness.New(harness.Options{Seed: 11, NumPeers: 3})
	if err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "sst-test", 0)
		if err != nil {
			return err
		}
		fn(p, fs)
		return nil
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestSSTableRoundtrip(t *testing.T) {
	sstFixture(t, func(p *simnet.Proc, fs *core.FS) {
		var ents []entry
		for i := 0; i < 500; i++ {
			ents = append(ents, entry{key: fmt.Sprintf("key%06d", i), value: []byte(fmt.Sprintf("val%d", i))})
		}
		ents = append(ents, entry{key: "zzz-deleted", del: true})
		tb, err := writeSSTable(p, fs, "/t/a.sst", ents)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		// Reopen from the durable representation.
		tb2, err := openSSTable(p, fs, "/t/a.sst")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for _, tab := range []*ssTable{tb, tb2} {
			v, found, del, err := tab.get(p, "key000123")
			if err != nil || !found || del || string(v) != "val123" {
				t.Fatalf("get = %q %v %v %v", v, found, del, err)
			}
			_, found, del, _ = tab.get(p, "zzz-deleted")
			if !found || !del {
				t.Fatalf("tombstone not found: %v %v", found, del)
			}
			if _, found, _, _ := tab.get(p, "nope"); found {
				t.Fatal("phantom key in sstable")
			}
		}
		all, err := tb2.scanAll(p)
		if err != nil || len(all) != 501 {
			t.Fatalf("scanAll = %d, %v", len(all), err)
		}
	})
}

func TestSSTableIncompleteIsRejected(t *testing.T) {
	sstFixture(t, func(p *simnet.Proc, fs *core.FS) {
		f, _ := fs.OpenFile(p, "/t/torn.sst", core.O_CREATE, 0)
		f.Write(p, []byte("partial garbage no trailer"))
		f.Sync(p)
		if _, err := openSSTable(p, fs, "/t/torn.sst"); err == nil {
			t.Fatal("incomplete table accepted")
		}
	})
}

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(keys []string) bool {
		if len(keys) == 0 {
			return true
		}
		b := newBloom(len(keys))
		for _, k := range keys {
			b.add(k)
		}
		for _, k := range keys {
			if !b.mayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := newBloom(10000)
	for i := 0; i < 10000; i++ {
		b.add(fmt.Sprintf("present%06d", i))
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.mayContain(fmt.Sprintf("absent%06d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / 10000; rate > 0.05 {
		t.Fatalf("false positive rate = %.3f, want < 5%%", rate)
	}
}

// Property: a write/open/get roundtrip returns exactly the written values
// for arbitrary key-value sets.
func TestQuickSSTableFidelity(t *testing.T) {
	f := func(pairs map[string]string) bool {
		if len(pairs) == 0 || len(pairs) > 200 {
			return true
		}
		ok := true
		sstFixture(t, func(p *simnet.Proc, fs *core.FS) {
			var ents []entry
			for k, v := range pairs {
				ents = append(ents, entry{key: k, value: []byte(v)})
			}
			sortEntries(ents)
			tb, err := writeSSTable(p, fs, "/t/q.sst", ents)
			if err != nil {
				ok = false
				return
			}
			for k, v := range pairs {
				got, found, del, err := tb.get(p, k)
				if err != nil || !found || del || string(got) != v {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func sortEntries(ents []entry) {
	for i := 1; i < len(ents); i++ {
		for j := i; j > 0 && ents[j].key < ents[j-1].key; j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
}
