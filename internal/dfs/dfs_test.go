package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"splitft/internal/simnet"
)

type fixture struct {
	sim     *simnet.Sim
	cluster *Cluster
	node    *simnet.Node
	client  *Client
}

func newFixture(seed int64) *fixture {
	s := simnet.New(seed)
	c := NewCluster(s, "ceph", DefaultParams())
	n := s.NewNode("appserver")
	return &fixture{sim: s, cluster: c, node: n, client: c.Mount(n)}
}

func run(t *testing.T, s *simnet.Sim) {
	t.Helper()
	if err := s.RunUntil(time.Hour); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestBackgroundWritebackEventuallyDurable(t *testing.T) {
	fx := newFixture(1)
	fx.node.Go("test", func(p *simnet.Proc) {
		f, _ := fx.client.OpenFile(p, "/log", true, false)
		f.Write(p, []byte("lazily"))
		// No sync: wait past the writeback interval.
		p.Sleep(2 * DefaultParams().WritebackInterval)
		got, _ := fx.cluster.DurableBytes("/log")
		if string(got) != "lazily" {
			t.Errorf("durable after writeback = %q", got)
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

func TestSyncCostModel(t *testing.T) {
	fx := newFixture(1)
	pm := DefaultParams()
	fx.node.Go("test", func(p *simnet.Proc) {
		f, _ := fx.client.OpenFile(p, "/f", true, false)
		// Small sync write: dominated by the fixed cost (~2.3ms).
		f.Write(p, make([]byte, 512))
		start := p.Now()
		f.Sync(p)
		small := p.Now() - start
		if small < pm.SyncFixed || small > pm.SyncFixed+time.Millisecond {
			t.Errorf("512B sync = %v, want ~%v", small, pm.SyncFixed)
		}
		// 64MB sync write: dominated by bandwidth (~128ms @ 500MB/s).
		f.Write(p, make([]byte, 64<<20))
		start = p.Now()
		f.Sync(p)
		large := p.Now() - start
		if large < 100*time.Millisecond || large > 200*time.Millisecond {
			t.Errorf("64MB sync = %v, want ~130ms", large)
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

// Fig 1(d): sequential sync-write throughput spans roughly three orders of
// magnitude between 512B and 64MB IOs.
func TestFig1dThroughputShape(t *testing.T) {
	tput := func(ioSize int64) float64 {
		fx := newFixture(1)
		var mbps float64
		fx.node.Go("bench", func(p *simnet.Proc) {
			f, _ := fx.client.OpenFile(p, "/seq", true, false)
			total := int64(0)
			target := int64(16 << 20)
			if ioSize >= 16<<20 {
				target = 2 * ioSize
			}
			buf := make([]byte, ioSize)
			start := p.Now()
			for total < target {
				f.Write(p, buf)
				f.Sync(p)
				total += ioSize
			}
			secs := (p.Now() - start).Seconds()
			mbps = float64(total) / 1e6 / secs
			fx.sim.Stop()
		})
		if err := fx.sim.RunUntil(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
		return mbps
	}
	small := tput(512)
	large := tput(64 << 20)
	ratio := large / small
	if ratio < 500 || ratio > 5000 {
		t.Errorf("64MB/512B throughput ratio = %.0f (small=%.2f MB/s large=%.0f MB/s), want ~3 orders",
			ratio, small, large)
	}
}

func TestMetadataOps(t *testing.T) {
	fx := newFixture(1)
	fx.node.Go("test", func(p *simnet.Proc) {
		if _, err := fx.client.OpenFile(p, "/missing", false, false); !errors.Is(err, ErrNotExist) {
			t.Errorf("open missing: %v", err)
		}
		f, _ := fx.client.OpenFile(p, "/a", true, false)
		f.Write(p, []byte("x"))
		f.Sync(p)
		f.Close(p)
		if err := fx.client.Rename(p, "/a", "/b"); err != nil {
			t.Errorf("rename: %v", err)
		}
		if fx.client.Exists("/a") || !fx.client.Exists("/b") {
			t.Error("rename did not move the file")
		}
		if got := fx.client.List("/"); fmt.Sprint(got) != "[/b]" {
			t.Errorf("list = %v", got)
		}
		if err := fx.client.Unlink(p, "/b"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if fx.client.Exists("/b") {
			t.Error("unlink left the file")
		}
		if err := fx.client.Unlink(p, "/b"); !errors.Is(err, ErrNotExist) {
			t.Errorf("double unlink: %v", err)
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

func TestDirectIOSlowerThanCached(t *testing.T) {
	fx := newFixture(1)
	fx.node.Go("test", func(p *simnet.Proc) {
		f, _ := fx.client.OpenFile(p, "/f", true, false)
		f.Write(p, make([]byte, 8<<20))
		f.Sync(p)
		f.Close(p)

		read := func(direct bool) time.Duration {
			fx.client.DirectIO = direct
			h, _ := fx.client.OpenFile(p, "/f", false, false)
			defer h.Close(p)
			buf := make([]byte, 4096)
			start := p.Now()
			for off := int64(0); off < 8<<20; off += 4096 {
				h.Pread(p, buf, off)
			}
			return p.Now() - start
		}
		direct := read(true)
		// New mount so the cache is cold but readahead applies.
		cached := read(false)
		if cached >= direct {
			t.Errorf("cached read (%v) not faster than direct IO (%v)", cached, direct)
		}
		if direct < 100*cached/10 { // direct should be much slower (per-read fixed cost)
			t.Logf("direct=%v cached=%v", direct, cached)
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

func TestReadaheadAmortizesSequentialReads(t *testing.T) {
	s := simnet.New(1)
	params := DefaultParams()
	params.CacheCapacity = 8 << 20 // small cache so eviction is cheap to force
	cluster := NewCluster(s, "ceph", params)
	node := s.NewNode("appserver")
	fx := &fixture{sim: s, cluster: cluster, node: node, client: cluster.Mount(node)}
	var seqLat, randLat time.Duration
	fx.node.Go("test", func(p *simnet.Proc) {
		f, _ := fx.client.OpenFile(p, "/f", true, false)
		f.Write(p, make([]byte, 16<<20))
		f.Sync(p)
		f.Close(p)
		// Evict everything by filling the cache with another file.
		g, _ := fx.client.OpenFile(p, "/fill", true, false)
		g.Write(p, make([]byte, 12<<20))
		g.Sync(p)
		g.Close(p)

		h, _ := fx.client.OpenFile(p, "/f", false, false)
		buf := make([]byte, 512)
		start := p.Now()
		reads := 0
		for off := int64(0); off < 8<<20; off += 512 {
			h.Read(p, buf)
			reads++
		}
		seqLat = (p.Now() - start) / time.Duration(reads)

		// Random-ish strided reads defeat readahead.
		start = p.Now()
		reads = 0
		for off := int64(8 << 20); off < 16<<20; off += 1 << 20 {
			h.Pread(p, buf, off)
			reads++
		}
		randLat = (p.Now() - start) / time.Duration(reads)
		fx.sim.Stop()
	})
	run(t, fx.sim)
	if seqLat >= randLat {
		t.Errorf("sequential read latency (%v) should beat strided (%v)", seqLat, randLat)
	}
	if seqLat > 100*time.Microsecond {
		t.Errorf("sequential 512B read = %v, want small (readahead-amortized)", seqLat)
	}
}

// runFor runs the simulation to horizon and fails the test if the body has
// not finished by then: the waits under test are on events alone, so a lost
// wake-up blocks the body rather than slowing it.
func runFor(t *testing.T, s *simnet.Sim, horizon time.Duration, done *bool) {
	t.Helper()
	if err := s.RunUntil(horizon); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !*done {
		t.Fatalf("test body still blocked at the %v horizon", horizon)
	}
}

// A writer stalled past the dirty high watermark resumes when a writeback
// pass ends, and nothing else wakes it.
func TestDirtyHighWaterStallsWriter(t *testing.T) {
	fx := newFixture(1)
	done := false
	fx.node.Go("test", func(p *simnet.Proc) {
		f, _ := fx.client.OpenFile(p, "/log", true, false)
		// Write far past the high watermark without syncing.
		chunk := make([]byte, 1<<20)
		for i := 0; i < 150; i++ {
			f.Write(p, chunk)
		}
		if fx.client.StallTime == 0 {
			t.Error("expected writer stalls past the dirty high watermark")
		}
		done = true
		fx.sim.Stop()
	})
	runFor(t, fx.sim, 10*time.Second, &done)
}

// The mount's dirty total counts a rewritten byte once: a writer that keeps
// rewriting one range holds that range dirty, not a high watermark's worth,
// and never stalls.
func TestRewriteCountsDirtyOnce(t *testing.T) {
	fx := newFixture(1)
	done := false
	fx.node.Go("test", func(p *simnet.Proc) {
		f, _ := fx.client.OpenFile(p, "/db", true, false)
		chunk := make([]byte, 1<<20)
		for i := 0; i < 100; i++ {
			f.Pwrite(p, chunk, 0)
		}
		if fx.client.dirty != 1<<20 || f.DirtyBytes() != 1<<20 || fx.client.StallTime != 0 {
			t.Errorf("100 rewrites of 1 MiB: mount dirty total %d, file dirty %d, writers stalled %v; want 1 MiB, 1 MiB, 0",
				fx.client.dirty, f.DirtyBytes(), fx.client.StallTime)
		}
		done = true
		fx.sim.Stop()
	})
	runFor(t, fx.sim, 10*time.Second, &done)
}

// An fsync that overlaps an in-flight writeback of the same file returns
// only once that flush has landed. The writeback took the dirty spans, so
// the fsync has nothing of its own to push: it waits its turn on the file.
func TestFsyncWaitsForInflightWriteback(t *testing.T) {
	fx := newFixture(1)
	done := false
	fx.node.Go("test", func(p *simnet.Proc) {
		f, _ := fx.client.OpenFile(p, "/log", true, false)
		data := bytes.Repeat([]byte("w"), 16<<20) // ~32 ms on the storage pipe
		f.Write(p, data)
		fx.client.flushNow.Send(p, struct{}{})
		p.Sleep(time.Millisecond)
		if f.DirtyBytes() != 0 {
			t.Fatalf("writeback has not taken the spans: %d dirty bytes", f.DirtyBytes())
		}
		if err := f.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if got, _ := fx.cluster.DurableBytes("/log"); !bytes.Equal(got, data) {
			t.Errorf("fsync returned with %d of %d bytes durable", len(got), len(data))
		}
		done = true
		fx.sim.Stop()
	})
	runFor(t, fx.sim, 10*time.Second, &done)
}

func TestAddSpanMerging(t *testing.T) {
	var spans []span
	spans = addSpan(spans, span{10, 20})
	spans = addSpan(spans, span{30, 40})
	spans = addSpan(spans, span{15, 35}) // bridges both
	if len(spans) != 1 || spans[0] != (span{10, 40}) {
		t.Fatalf("spans = %+v", spans)
	}
	spans = addSpan(spans, span{0, 5})
	if len(spans) != 2 || spans[0] != (span{0, 5}) {
		t.Fatalf("spans = %+v", spans)
	}
	spans = addSpan(spans, span{5, 10}) // adjacent: merges with both
	if len(spans) != 1 || spans[0] != (span{0, 40}) {
		t.Fatalf("spans = %+v", spans)
	}
}

// Property: addSpan maintains its invariant — sorted, non-overlapping,
// non-adjacent, non-empty spans — and covers exactly the bytes ever added,
// for any sequence of spans including empty ones (a zero-length Pwrite used
// to insert a zero-length span, breaking the sorted-merge invariant).
func TestAddSpanProperty(t *testing.T) {
	const limit = 256
	f := func(ops []uint16) bool {
		var spans []span
		var shadow [limit + 16]bool
		for _, op := range ops {
			start := int64(op % limit)
			length := int64(op/limit) % 16 // 0..15, empty spans included
			spans = addSpan(spans, span{start, start + length})
			for i := start; i < start+length; i++ {
				shadow[i] = true
			}
		}
		for i, s := range spans {
			if s.end <= s.start {
				t.Logf("empty span %d: %+v", i, spans)
				return false
			}
			// Strictly after the previous span with a gap: adjacent or
			// overlapping spans must have been merged.
			if i > 0 && s.start <= spans[i-1].end {
				t.Logf("unsorted/unmerged at %d: %+v", i, spans)
				return false
			}
		}
		covered := func(i int64) bool {
			for _, s := range spans {
				if i >= s.start && i < s.end {
					return true
				}
			}
			return false
		}
		for i := int64(0); i < limit+16; i++ {
			if covered(i) != shadow[i] {
				t.Logf("byte %d: covered=%v shadow=%v spans=%+v", i, covered(i), shadow[i], spans)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Regression: an empty span between two real ones must vanish, not wedge
	// itself into the list.
	spans := addSpan(addSpan(nil, span{0, 10}), span{20, 30})
	if got := addSpan(spans, span{15, 15}); len(got) != 2 {
		t.Fatalf("empty span inserted: %+v", got)
	}
}

// A writeback flush in flight when its file is renamed must follow the inode:
// the data lands under the new name, and a file re-created at the old path is
// not resurrected with the old content.
func TestRenameDuringWriteback(t *testing.T) {
	fx := newFixture(3)
	payload := bytes.Repeat([]byte{0xAB}, 8<<20) // 16ms of writeback at 500 MB/s
	fx.node.Go("test", func(p *simnet.Proc) {
		f, err := fx.client.OpenFile(p, "/old", true, false)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if _, err := f.Write(p, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		// Let the background writeback pick the dirty file up, then rename
		// mid-flush (the 8 MB flush spends ~16ms on storage bandwidth).
		p.Sleep(fx.cluster.Params().WritebackInterval + 5*time.Millisecond)
		if err := fx.client.Rename(p, "/old", "/new"); err != nil {
			t.Errorf("rename: %v", err)
		}
		g, err := fx.client.OpenFile(p, "/old", true, false)
		if err != nil {
			t.Errorf("recreate: %v", err)
			return
		}
		if _, err := g.Write(p, []byte("fresh")); err != nil {
			t.Errorf("write new: %v", err)
		}
		if err := g.Sync(p); err != nil {
			t.Errorf("sync new: %v", err)
		}
		// Drain the in-flight flush and sync the renamed file's remainder
		// through the original handle (it tracks the inode, not the name).
		if err := f.Sync(p); err != nil {
			t.Errorf("sync renamed: %v", err)
		}
		p.Sleep(2 * fx.cluster.Params().WritebackInterval)
		if got, ok := fx.cluster.DurableBytes("/old"); !ok || string(got) != "fresh" {
			t.Errorf("old path resurrected: %d bytes, ok=%v", len(got), ok)
		}
		if got, ok := fx.cluster.DurableBytes("/new"); !ok || !bytes.Equal(got, payload) {
			t.Errorf("renamed file lost data: %d bytes, ok=%v", len(got), ok)
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

// Property: any sequence of pwrites followed by sync yields durable content
// identical to applying the writes to a shadow buffer.
func TestQuickPwriteSyncFidelity(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
		Sync bool
	}
	f := func(ops []op) bool {
		if len(ops) == 0 || len(ops) > 24 {
			return true
		}
		fx := newFixture(5)
		ok := true
		fx.node.Go("t", func(p *simnet.Proc) {
			file, _ := fx.client.OpenFile(p, "/f", true, false)
			shadow := []byte{}
			for _, o := range ops {
				if len(o.Data) == 0 {
					continue
				}
				off := int64(o.Off) % 4096
				file.Pwrite(p, o.Data, off)
				if end := off + int64(len(o.Data)); end > int64(len(shadow)) {
					grown := make([]byte, end)
					copy(grown, shadow)
					shadow = grown
				}
				copy(shadow[off:], o.Data)
				if o.Sync {
					file.Sync(p)
				}
			}
			file.Sync(p)
			got, _ := fx.cluster.DurableBytes("/f")
			if !bytes.Equal(got, shadow) {
				ok = false
			}
			fx.sim.Stop()
		})
		if err := fx.sim.RunUntil(time.Hour); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a crash, durable content is exactly the content as of some
// prefix point >= the last explicit sync (writeback may have flushed more,
// but never reorders or loses synced data).
func TestQuickCrashDurabilityPrefix(t *testing.T) {
	f := func(nWrites uint8, crashAfterMs uint8) bool {
		n := int(nWrites)%12 + 1
		s := simnet.New(9)
		cluster := NewCluster(s, "c", DefaultParams())
		node := s.NewNode("n")
		client := cluster.Mount(node)
		var syncedLen int64
		node.Go("writer", func(p *simnet.Proc) {
			file, _ := client.OpenFile(p, "/f", true, false)
			for i := 0; i < n; i++ {
				payload := bytes.Repeat([]byte{byte(i + 1)}, 100)
				file.Write(p, payload)
				if i%3 == 0 {
					file.Sync(p)
					syncedLen = file.Size()
				}
			}
			p.Sleep(time.Hour)
		})
		crashed := false
		s.Go("injector", func(p *simnet.Proc) {
			p.Sleep(time.Duration(crashAfterMs) * time.Millisecond / 4)
			node.Crash()
			crashed = true
		})
		if err := s.RunUntil(time.Hour); err != nil {
			return false
		}
		if !crashed {
			return false
		}
		got, _ := cluster.DurableBytes("/f")
		if int64(len(got)) < syncedLen {
			return false
		}
		// Content must be a clean prefix: byte j belongs to write j/100.
		for j := 0; j < len(got); j++ {
			if got[j] != byte(j/100+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalExt4Faster(t *testing.T) {
	syncLat := func(params Params) time.Duration {
		s := simnet.New(1)
		c := NewCluster(s, "x", params)
		n := s.NewNode("n")
		cl := c.Mount(n)
		var lat time.Duration
		n.Go("t", func(p *simnet.Proc) {
			f, _ := cl.OpenFile(p, "/f", true, false)
			f.Write(p, make([]byte, 4096))
			start := p.Now()
			f.Sync(p)
			lat = p.Now() - start
			s.Stop()
		})
		s.RunUntil(time.Hour)
		return lat
	}
	ceph := syncLat(DefaultParams())
	ext4 := syncLat(LocalExt4Params())
	if ext4 >= ceph {
		t.Errorf("local ext4 sync (%v) should beat CephFS (%v)", ext4, ceph)
	}
}

// stampCache is the block cache's reference: every touch and insert stamps
// its entry, and an eviction scans for the smallest stamp.
type stampCache struct {
	stamp        uint64
	ents         map[blockKey]uint64
	used         int64
	hits, misses int64
}

func (c *stampCache) touch(k blockKey) {
	if _, ok := c.ents[k]; !ok {
		c.misses++
		return
	}
	c.hits++
	c.stamp++
	c.ents[k] = c.stamp
}

func (c *stampCache) insert(path string, start, end, bs, capacity int64) {
	for b := start / bs; b*bs < end; b++ {
		k := blockKey{path: path, idx: b}
		if _, ok := c.ents[k]; ok {
			continue
		}
		c.stamp++
		c.ents[k] = c.stamp
		c.used += bs
	}
	for c.used > capacity {
		var victim blockKey
		oldest := ^uint64(0)
		for k, s := range c.ents {
			if s < oldest {
				oldest, victim = s, k
			}
		}
		delete(c.ents, victim)
		c.used -= bs
	}
}

// The mount's block cache evicts exactly what a scan for the least recently
// stamped block evicts, and counts the same hits and misses, over a seeded
// mix of lookups, inserts past capacity and path drops.
func TestBlockCacheMatchesStampScan(t *testing.T) {
	paths := []string{"/a", "/b", "/c"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fx := newFixture(seed)
		cl := fx.client
		bs := int64(cacheBlock)
		fx.cluster.params.CacheCapacity = 12 * bs
		capacity := fx.cluster.params.CacheCapacity
		ref := &stampCache{ents: make(map[blockKey]uint64)}
		for op := 0; op < 500; op++ {
			path := paths[rng.Intn(len(paths))]
			switch k := rng.Intn(10); {
			case k < 6:
				key := blockKey{path: path, idx: int64(rng.Intn(16))}
				cl.cachedBlock(key)
				ref.touch(key)
			case k < 9:
				start := int64(rng.Intn(16)) * bs
				end := start + int64(1+rng.Intn(6))*bs - int64(rng.Intn(int(bs)))
				cl.insertBlocks(path, start, end)
				ref.insert(path, start, end, bs, capacity)
			default:
				other := paths[rng.Intn(len(paths))]
				cl.dropBlocks(path, other)
				for k := range ref.ents {
					if k.path == path || k.path == other {
						delete(ref.ents, k)
						ref.used -= bs
					}
				}
			}
			if cl.CacheHits != ref.hits || cl.CacheMisses != ref.misses || cl.cacheUsed != ref.used {
				t.Fatalf("seed %d op %d: hits/misses/used %d/%d/%d, reference %d/%d/%d", seed, op,
					cl.CacheHits, cl.CacheMisses, cl.cacheUsed, ref.hits, ref.misses, ref.used)
			}
			if len(cl.cache) != len(ref.ents) {
				t.Fatalf("seed %d op %d: %d blocks resident, reference %d", seed, op, len(cl.cache), len(ref.ents))
			}
			for k := range ref.ents {
				if _, ok := cl.cache[k]; !ok {
					t.Fatalf("seed %d op %d: %v evicted, the reference keeps it", seed, op, k)
				}
			}
		}
	}
}
