package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"splitft/internal/controller"
	"splitft/internal/dfs"
	"splitft/internal/ncl"
	"splitft/internal/peer"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// testbed assembles the full SplitFT deployment: controller ensemble, dfs
// cluster, RDMA fabric, log peers, and an application node.
type testbed struct {
	sim     *simnet.Sim
	svc     *controller.Service
	fabric  *rdma.Fabric
	dcl     *dfs.Cluster
	appNode *simnet.Node
	pNodes  []*simnet.Node
}

func newTestbed(seed int64, nPeers int) *testbed {
	s := simnet.New(seed)
	s.Net().SetDefaultLatency(5 * time.Microsecond)
	ctrlNodes := []*simnet.Node{s.NewNode("ctrl0"), s.NewNode("ctrl1"), s.NewNode("ctrl2")}
	tb := &testbed{
		sim:     s,
		svc:     controller.Start(s, ctrlNodes, controller.DefaultConfig()),
		fabric:  rdma.NewFabric(s, rdma.DefaultParams()),
		dcl:     dfs.NewCluster(s, "cephfs", dfs.DefaultParams()),
		appNode: s.NewNode("appserver"),
	}
	for i := 0; i < nPeers; i++ {
		tb.pNodes = append(tb.pNodes, s.NewNode(fmt.Sprintf("peer%d", i)))
	}
	return tb
}

func (tb *testbed) run(t *testing.T, fn func(p *simnet.Proc)) {
	t.Helper()
	tb.sim.Go("test-main", func(p *simnet.Proc) {
		defer tb.sim.Stop()
		p.Sleep(time.Second)
		cfg := peer.DefaultConfig()
		cfg.LendableMem = 256 << 20
		for _, n := range tb.pNodes {
			if _, err := peer.Start(p, tb.svc, tb.fabric, n, cfg); err != nil {
				t.Errorf("peer start: %v", err)
				tb.sim.Stop()
				return
			}
		}
		fn(p)
	})
	if err := tb.sim.RunUntil(10 * time.Minute); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func (tb *testbed) opts(fencing int64) Options {
	nclCfg := ncl.DefaultConfig()
	nclCfg.DefaultRegionSize = 4 << 20
	return Options{
		Controller: tb.svc,
		Fabric:     tb.fabric,
		DFS:        tb.dcl,
		Node:       tb.appNode,
		AppID:      "app1",
		Fencing:    fencing,
		NCL:        nclCfg,
	}
}

func TestDFSRouting(t *testing.T) {
	tb := newTestbed(1, 3)
	tb.run(t, func(p *simnet.Proc) {
		col := trace.New()
		tb.sim.SetTracer(col)
		fs, err := NewFS(p, tb.opts(0))
		if err != nil {
			t.Fatalf("fs: %v", err)
		}
		f, err := fs.OpenFile(p, "/sst/000001.sst", O_CREATE, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		mark := col.Len()
		f.Write(p, bytes.Repeat([]byte("S"), 4096))
		if err := f.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if got, _ := tb.dcl.DurableBytes("/sst/000001.sst"); len(got) != 4096 {
			t.Errorf("durable = %d bytes", len(got))
		}
		spans := col.Since(mark)
		if n := trace.Count(spans, "core", "write.dfs"); n != 1 {
			t.Errorf("write.dfs spans = %d, want 1", n)
		}
		if sp := trace.First(spans, "core", "write.dfs"); sp == nil || sp.IntAttr("bytes") != 4096 || !sp.Done() {
			t.Errorf("write.dfs span = %+v", sp)
		}
		if n := trace.Count(spans, "core", "write.ncl"); n != 0 {
			t.Errorf("dfs-routed write produced %d write.ncl spans", n)
		}
		buf := make([]byte, 10)
		if n, _ := f.Pread(p, buf, 0); n != 10 || buf[0] != 'S' {
			t.Errorf("read back: %d %q", n, buf)
		}
		f.Close(p)
		if err := fs.Rename(p, "/sst/000001.sst", "/sst/000002.sst"); err != nil {
			t.Errorf("rename: %v", err)
		}
		if got := fs.ListDFS("/sst/"); len(got) != 1 || got[0] != "/sst/000002.sst" {
			t.Errorf("list = %v", got)
		}
	})
}

func TestNCLRoutingAndFastSync(t *testing.T) {
	tb := newTestbed(2, 3)
	tb.run(t, func(p *simnet.Proc) {
		fs, err := NewFS(p, tb.opts(0))
		if err != nil {
			t.Fatalf("fs: %v", err)
		}
		col := trace.New()
		tb.sim.SetTracer(col)
		f, err := fs.OpenFile(p, "/wal/000003.log", O_NCL|O_CREATE, 1<<20)
		if err != nil {
			t.Fatalf("open ncl: %v", err)
		}
		mark := col.Len()
		start := p.Now()
		f.Write(p, make([]byte, 128))
		writeLat := p.Now() - start
		start = p.Now()
		if err := f.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		syncLat := p.Now() - start
		// The write is replicated synchronously (a few us); Sync is ~free.
		if writeLat > 15*time.Microsecond {
			t.Errorf("ncl write = %v, want ~5us", writeLat)
		}
		if syncLat > time.Microsecond {
			t.Errorf("ncl sync = %v, want ~0", syncLat)
		}
		spans := col.Since(mark)
		if n := trace.Count(spans, "core", "write.ncl"); n != 1 {
			t.Errorf("write.ncl spans = %d, want 1", n)
		}
		if sp := trace.First(spans, "core", "write.ncl"); sp == nil || sp.IntAttr("bytes") != 128 {
			t.Errorf("write.ncl span = %+v", sp)
		}
		if n := trace.Count(spans, "core", "write.dfs"); n != 0 {
			t.Errorf("ncl-routed write produced %d write.dfs spans", n)
		}
		// The dfs knows nothing about this file.
		if _, ok := tb.dcl.DurableBytes("/wal/000003.log"); ok {
			t.Error("ncl file leaked into the dfs")
		}
		if files, err := fs.ListNCL(p); err != nil || len(files) != 1 || files[0] != "/wal/000003.log" {
			t.Errorf("ncl files = %v, %v, want the log", files, err)
		}
	})
}

func TestCrashRecoveryThroughFS(t *testing.T) {
	tb := newTestbed(3, 4)
	tb.run(t, func(p *simnet.Proc) {
		var want []byte
		tb.appNode.Go("app-v1", func(ap *simnet.Proc) {
			fs, err := NewFS(ap, tb.opts(0))
			if err != nil {
				return
			}
			f, err := fs.OpenFile(ap, "wal-7", O_NCL|O_CREATE, 1<<20)
			if err != nil {
				return
			}
			for i := 0; i < 30; i++ {
				rec := bytes.Repeat([]byte{byte(i + 1)}, 50)
				if _, err := f.Write(ap, rec); err != nil {
					return
				}
				want = append(want, rec...)
			}
			ap.Sleep(time.Hour)
		})
		p.Sleep(300 * time.Millisecond)
		tb.appNode.Crash()
		p.Sleep(10 * time.Millisecond)
		tb.appNode.Restart()

		fs2, err := NewFS(p, tb.opts(1))
		if err != nil {
			t.Fatalf("fs v2: %v", err)
		}
		files, err := fs2.ListNCL(p)
		if err != nil || len(files) != 1 {
			t.Fatalf("ncl files = %v, %v", files, err)
		}
		col := trace.New()
		tb.sim.SetTracer(col)
		mark := col.Len()
		f2, err := fs2.OpenFile(p, "wal-7", O_NCL, 0)
		if err != nil {
			t.Fatalf("recovering open: %v", err)
		}
		buf := make([]byte, len(want))
		n, _ := f2.Pread(p, buf, 0)
		if n < len(want) || !bytes.Equal(buf[:len(want)], want) {
			t.Fatalf("recovered %d bytes, mismatch", n)
		}
		// The recovery's spans end with its background phase, behind the
		// barrier.
		if err := f2.Sync(p); err != nil {
			t.Fatalf("sync after the recovering open: %v", err)
		}
		tb.sim.SetTracer(nil)
		spans := col.Since(mark)
		if rec := trace.First(spans, "ncl", "recover"); rec == nil || !rec.Done() {
			t.Error("recovery span not recorded")
		} else if trace.Sum(spans, "ncl", "recover.") <= 0 {
			t.Error("recovery phase spans missing")
		}
	})
}

func TestUnlinkReleasesUnopenedNCLFile(t *testing.T) {
	tb := newTestbed(4, 3)
	tb.run(t, func(p *simnet.Proc) {
		tb.appNode.Go("app-v1", func(ap *simnet.Proc) {
			fs, _ := NewFS(ap, tb.opts(0))
			f, _ := fs.OpenFile(ap, "old-wal", O_NCL|O_CREATE, 1<<20)
			f.Write(ap, []byte("stale"))
			ap.Sleep(time.Hour)
		})
		p.Sleep(200 * time.Millisecond)
		tb.appNode.Crash()
		p.Sleep(10 * time.Millisecond)
		tb.appNode.Restart()
		fs2, _ := NewFS(p, tb.opts(1))
		// Delete without recovering (checkpoint made the log obsolete).
		if err := fs2.Unlink(p, "old-wal"); err != nil {
			t.Fatalf("unlink: %v", err)
		}
		files, _ := fs2.ListNCL(p)
		if len(files) != 0 {
			t.Errorf("ncl files after unlink = %v", files)
		}
		if _, err := fs2.OpenFile(p, "old-wal", O_NCL, 0); !errors.Is(err, ErrNotExist) {
			t.Errorf("open deleted ncl file: %v", err)
		}
	})
}

func TestSplitFileRoutingAndRecovery(t *testing.T) {
	tb := newTestbed(5, 3)
	tb.run(t, func(p *simnet.Proc) {
		var shadow []byte
		apply := func(off int64, data []byte) {
			end := off + int64(len(data))
			if end > int64(len(shadow)) {
				g := make([]byte, end)
				copy(g, shadow)
				shadow = g
			}
			copy(shadow[off:], data)
		}
		tb.appNode.Go("app-v1", func(ap *simnet.Proc) {
			fs, _ := NewFS(ap, tb.opts(0))
			sf, err := fs.OpenSplit(ap, "/mixed.db", 4096, 1<<20)
			if err != nil {
				return
			}
			large := bytes.Repeat([]byte("L"), 64<<10)
			sf.Pwrite(ap, large, 0)
			apply(0, large)
			small := []byte("tiny-update")
			sf.Pwrite(ap, small, 100)
			apply(100, small)
			sf.Pwrite(ap, []byte("more"), 70000)
			apply(70000, []byte("more"))
			large2 := bytes.Repeat([]byte("M"), 8192)
			sf.Pwrite(ap, large2, 50)
			apply(50, large2)
			sf.Pwrite(ap, []byte("after-large"), 60)
			apply(60, []byte("after-large"))
			ap.Sleep(time.Hour)
		})
		p.Sleep(500 * time.Millisecond)
		tb.appNode.Crash()
		p.Sleep(10 * time.Millisecond)
		tb.appNode.Restart()
		fs2, _ := NewFS(p, tb.opts(1))
		sf2, err := fs2.OpenSplit(p, "/mixed.db", 4096, 1<<20)
		if err != nil {
			t.Fatalf("recover split: %v", err)
		}
		if sf2.Size() != int64(len(shadow)) {
			t.Fatalf("size = %d, want %d", sf2.Size(), len(shadow))
		}
		got := make([]byte, len(shadow))
		sf2.Pread(p, got, 0)
		if !bytes.Equal(got, shadow) {
			for i := range got {
				if got[i] != shadow[i] {
					t.Fatalf("content diverges at %d: %q vs %q", i, got[i], shadow[i])
				}
			}
		}
	})
}

func TestSplitFileCheckpointResetsJournal(t *testing.T) {
	tb := newTestbed(6, 3)
	tb.run(t, func(p *simnet.Proc) {
		fs, _ := NewFS(p, tb.opts(0))
		sf, err := fs.OpenSplit(p, "/mixed.db", 1024, 1<<20)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < 50; i++ {
			sf.Pwrite(p, []byte("small-write-payload"), int64(i*20))
		}
		if err := sf.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if sf.jOff != 0 {
			t.Errorf("journal offset after checkpoint = %d", sf.jOff)
		}
		// Everything durable in the dfs now.
		durable, _ := tb.dcl.DurableBytes("/mixed.db")
		if int64(len(durable)) != sf.Size() {
			t.Errorf("durable %d bytes, view %d", len(durable), sf.Size())
		}
		// Writes after checkpoint still work and recover.
		sf.Pwrite(p, []byte("post-ckpt"), 3)
		buf := make([]byte, 9)
		sf.Pread(p, buf, 3)
		if string(buf) != "post-ckpt" {
			t.Errorf("read = %q", buf)
		}
	})
}

// Property: random mixed-size pwrites recover exactly after a crash.
func TestQuickSplitFileFidelity(t *testing.T) {
	type op struct {
		Off   uint16
		Size  uint16
		Large bool
	}
	f := func(ops []op) bool {
		if len(ops) == 0 || len(ops) > 12 {
			return true
		}
		tb := newTestbed(7, 3)
		ok := true
		tb.run(t, func(p *simnet.Proc) {
			var shadow []byte
			tb.appNode.Go("app", func(ap *simnet.Proc) {
				fs, _ := NewFS(ap, tb.opts(0))
				sf, err := fs.OpenSplit(ap, "/f", 2048, 4<<20)
				if err != nil {
					return
				}
				for i, o := range ops {
					size := int(o.Size)%1024 + 1
					if o.Large {
						size += 2048
					}
					data := bytes.Repeat([]byte{byte(i + 1)}, size)
					off := int64(o.Off) % 8192
					if _, err := sf.Pwrite(ap, data, off); err != nil {
						return
					}
					end := off + int64(size)
					if end > int64(len(shadow)) {
						g := make([]byte, end)
						copy(g, shadow)
						shadow = g
					}
					copy(shadow[off:], data)
				}
				ap.Sleep(time.Hour)
			})
			p.Sleep(2 * time.Second)
			tb.appNode.Crash()
			p.Sleep(10 * time.Millisecond)
			tb.appNode.Restart()
			fs2, _ := NewFS(p, tb.opts(1))
			sf2, err := fs2.OpenSplit(p, "/f", 2048, 4<<20)
			if err != nil {
				ok = false
				return
			}
			got := make([]byte, len(shadow))
			sf2.Pread(p, got, 0)
			if !bytes.Equal(got, shadow) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
