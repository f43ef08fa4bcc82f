package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"splitft/internal/simnet"
)

// localExtentMeta is the controller-less extent allocator the standalone
// dfs tests run on: a counter and a seal table, priced at one metadata op
// per call like the controller-backed client the harness wires.
type localExtentMeta struct {
	c      *Cluster
	next   uint64
	sealed map[uint64]int64
}

func (m *localExtentMeta) AllocIDs(p *simnet.Proc, n int) (uint64, error) {
	p.Sleep(m.c.params.MetaFixed)
	first := m.next
	m.next += uint64(n)
	return first, nil
}

func (m *localExtentMeta) Seal(p *simnet.Proc, id uint64, nodes []string, length int64) error {
	p.Sleep(m.c.params.MetaFixed)
	m.sealed[id] = length
	return nil
}

// extFixture is a standalone extent-plane testbed: a dfs cluster with
// storage nodes attached and the cluster-local extent allocator (one
// allocator for every mount, so IDs never collide across mounts).
type extFixture struct {
	sim     *simnet.Sim
	cluster *Cluster
	node    *simnet.Node
	client  *Client
	sns     []*simnet.Node
}

func newExtFixture(seed int64, params Params) *extFixture {
	s := simnet.New(seed)
	c := NewCluster(s, "ceph", params)
	sns := make([]*simnet.Node, params.ExtentNodes)
	for i := range sns {
		sns[i] = s.NewNode(fmt.Sprintf("sn%d", i))
	}
	meta := &localExtentMeta{c: c, sealed: make(map[uint64]int64)}
	c.EnableExtents(sns, func(*simnet.Node) ExtentMeta { return meta })
	n := s.NewNode("appserver")
	return &extFixture{sim: s, cluster: c, node: n, client: c.Mount(n), sns: sns}
}

// pattern fills a deterministic, position-dependent byte pattern so a
// misplaced segment shows up as a content mismatch, not just a length one.
func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i/251)
	}
	return out
}

func TestExtentWriteSyncReadBack(t *testing.T) {
	fx := newExtFixture(1, DefaultParams())
	payload := pattern(9 << 20) // 3 extents at the 4 MB default
	fx.node.Go("test", func(p *simnet.Proc) {
		h, err := fx.client.OpenFile(p, "/ext/f", true, true)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if _, ok := h.b.(*extentBackend); !ok {
			t.Errorf("created on %T, want the extent backend", h.b)
		}
		if _, err := h.Write(p, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := h.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
		}
		if got, ok := fx.cluster.DurableBytes("/ext/f"); !ok || !bytes.Equal(got, payload) {
			t.Errorf("durable = %d bytes, ok=%v", len(got), ok)
		}
		if fx.cluster.ExtentBytes != int64(len(payload)) || fx.cluster.ExtentSyncs == 0 {
			t.Errorf("stats: bytes=%d syncs=%d", fx.cluster.ExtentBytes, fx.cluster.ExtentSyncs)
		}
		// The stride chain pick must spread the three extents' chain slots
		// over distinct nodes, not pile them on one chain.
		loaded := 0
		for _, en := range fx.cluster.extents.nodes {
			if en.BytesStored > 0 {
				loaded++
			}
		}
		if loaded < 6 {
			t.Errorf("only %d storage nodes hold data, want a spread", loaded)
		}
		// A second mount auto-detects the backend and reads through the
		// manifest, across an extent boundary.
		cl2 := fx.cluster.Mount(fx.sim.NewNode("reader"))
		h2, err := cl2.OpenFile(p, "/ext/f", false, false)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		if h2.Size() != int64(len(payload)) {
			t.Errorf("reopened size = %d", h2.Size())
		}
		buf := make([]byte, 1<<20)
		off := int64(4<<20) - 512<<10 // spans the extent 0 -> 1 boundary
		if n, err := h2.Pread(p, buf, off); err != nil || n != len(buf) {
			t.Errorf("pread = %d, %v", n, err)
		} else if !bytes.Equal(buf, payload[off:off+int64(len(buf))]) {
			t.Error("remote read content mismatch")
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

// An overwrite appends fresh bytes and shadows the old range in the
// manifest (log-structured splice), without disturbing its neighbors.
func TestExtentOverwriteShadowsOldRange(t *testing.T) {
	fx := newExtFixture(2, DefaultParams())
	fx.node.Go("test", func(p *simnet.Proc) {
		h, err := fx.client.OpenFile(p, "/ext/f", true, true)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		shadow := pattern(1 << 20)
		h.Write(p, shadow)
		if err := h.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
		}
		over := bytes.Repeat([]byte{0xEE}, 100<<10)
		h.Pwrite(p, over, 300<<10)
		copy(shadow[300<<10:], over)
		if err := h.Sync(p); err != nil {
			t.Errorf("sync overwrite: %v", err)
		}
		man := fx.cluster.files["/ext/f"].ext
		if len(man.segs) != 3 {
			t.Errorf("manifest has %d segments after splice, want 3: %+v", len(man.segs), man.segs)
		}
		if got, ok := fx.cluster.DurableBytes("/ext/f"); !ok || !bytes.Equal(got, shadow) {
			t.Errorf("durable mismatch after overwrite (ok=%v)", ok)
		}
		// A fresh mount reads the spliced view remotely.
		cl2 := fx.cluster.Mount(fx.sim.NewNode("reader"))
		h2, err := cl2.OpenFile(p, "/ext/f", false, false)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		buf := make([]byte, len(shadow))
		if n, err := h2.Pread(p, buf, 0); err != nil || n != len(buf) {
			t.Errorf("pread = %d, %v", n, err)
		} else if !bytes.Equal(buf, shadow) {
			t.Error("spliced read mismatch")
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

// The headline perf property: a 64 MB chained append syncs at least 5x
// faster than the flat path's primary-copy sync write of the same bytes.
func TestChainAppendBeatsFlatSync(t *testing.T) {
	fx := newExtFixture(3, DefaultParams())
	payload := make([]byte, 64<<20)
	fx.node.Go("test", func(p *simnet.Proc) {
		flat, err := fx.client.OpenFile(p, "/flat", true, false)
		if err != nil {
			t.Errorf("create flat: %v", err)
			return
		}
		flat.Write(p, payload)
		start := p.Now()
		if err := flat.Sync(p); err != nil {
			t.Errorf("flat sync: %v", err)
		}
		flatDur := p.Now() - start

		h, err := fx.client.OpenFile(p, "/chained", true, true)
		if err != nil {
			t.Errorf("create extent: %v", err)
			return
		}
		h.Write(p, payload)
		start = p.Now()
		if err := h.Sync(p); err != nil {
			t.Errorf("chain sync: %v", err)
		}
		chainDur := p.Now() - start
		if chainDur <= 0 || flatDur < 5*chainDur {
			t.Errorf("chain sync %v not ≥5x faster than flat sync %v", chainDur, flatDur)
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

// failParams shrinks the plane so failure tests stay quick — 8 nodes, 1 MB
// extents, 128 KB frames — and slows the links so a 3 MB pump spans ~10 ms
// of virtual time, a window a crash injector can reliably land inside.
func failParams() Params {
	pm := DefaultParams()
	pm.ExtentNodes = 8
	pm.ExtentSize = 1 << 20
	pm.ChainFrame = 128 << 10
	pm.ChainWindow = 4
	pm.LinkBandwidth = 300e6
	return pm
}

// crashMidAppend writes 3 MB while crashing the storage node at idx a
// little into the pump, and asserts the chain re-forms: the sync succeeds,
// the acked data is fully readable with the node still dead, and the mount
// excludes the suspect from later chains.
func crashMidAppend(t *testing.T, idx int) {
	fx := newExtFixture(4, failParams())
	payload := pattern(3 << 20)
	victim := fx.sns[idx]
	syncStarted := false
	fx.node.Go("writer", func(p *simnet.Proc) {
		h, err := fx.client.OpenFile(p, "/ext/f", true, true)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		h.Write(p, payload)
		syncStarted = true
		if err := h.Sync(p); err != nil {
			t.Errorf("sync across the crash: %v", err)
		}
		if !fx.client.blame.Blamed(victim.Name()) {
			t.Errorf("%s not marked suspect after the failure", victim.Name())
		}
		// Everything acked must reconstruct from the surviving replicas.
		if got, ok := fx.cluster.DurableBytes("/ext/f"); !ok || !bytes.Equal(got, payload) {
			t.Errorf("durable mismatch after re-form (ok=%v)", ok)
		}
		// Post-crash segments must not include the suspect.
		man := fx.cluster.files["/ext/f"].ext
		resealed := false
		for _, sg := range man.segs {
			for _, addr := range sg.nodes {
				if addr == victim.Name() {
					// Pre-crash segments may still name the victim; reads
					// fail over. But a segment written on a re-formed chain
					// (a later extent ID) must not.
					if sg.ext >= 3 {
						t.Errorf("re-formed segment on suspect: %+v", sg)
					}
				}
			}
			if sg.ext >= 3 {
				resealed = true
			}
		}
		if !resealed {
			t.Error("no re-formed segment in the manifest; crash missed the append")
		}
		// A fresh mount reads the whole file with the victim still dead,
		// failing over to surviving chain members.
		cl2 := fx.cluster.Mount(fx.sim.NewNode("reader"))
		h2, err := cl2.OpenFile(p, "/ext/f", false, false)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		buf := make([]byte, len(payload))
		if n, err := h2.Pread(p, buf, 0); err != nil || n != len(buf) {
			t.Errorf("failover pread = %d, %v", n, err)
		} else if !bytes.Equal(buf, payload) {
			t.Error("failover read mismatch")
		}
		fx.sim.Stop()
	})
	fx.sim.Go("injector", func(p *simnet.Proc) {
		for !syncStarted {
			p.Sleep(100 * time.Microsecond)
		}
		// The sync pays one metadata trip (~0.5 ms) and then pumps 3 MB over
		// ~10 ms of link time; 1 ms in, every chunk still has unacked frames,
		// so the crash lands mid-append whichever chain the victim is on.
		p.Sleep(time.Millisecond)
		victim.Crash()
	})
	run(t, fx.sim)
}

func TestChainHeadCrashMidAppend(t *testing.T) { crashMidAppend(t, 0) }
func TestChainTailCrashMidAppend(t *testing.T) { crashMidAppend(t, 2) }

// A synced range is immune to later buffered writes: the chain members keep
// the frames they were sent by reference, so the bytes that leave the
// client must be a copy of the view, not the view itself. The client
// overwrites the synced range without syncing and crashes; the durable
// content and a fresh mount's read are the synced bytes.
func TestSyncedBytesSurviveLaterPwrite(t *testing.T) {
	fx := newExtFixture(5, DefaultParams())
	synced := pattern(1 << 20)
	written := false
	fx.node.Go("writer", func(p *simnet.Proc) {
		h, err := fx.client.OpenFile(p, "/ext/f", true, true)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		h.Write(p, synced)
		if err := h.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
		}
		h.Pwrite(p, bytes.Repeat([]byte{0xEE}, len(synced)), 0)
		written = true
	})
	reader := fx.sim.NewNode("reader")
	reader.Go("check", func(p *simnet.Proc) {
		for !written {
			p.Sleep(100 * time.Microsecond)
		}
		fx.node.Crash()
		if got, ok := fx.cluster.DurableBytes("/ext/f"); !ok || !bytes.Equal(got, synced) {
			t.Errorf("durable content is not the synced bytes (ok=%v)", ok)
		}
		h, err := fx.cluster.Mount(reader).OpenFile(p, "/ext/f", false, false)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		buf := make([]byte, len(synced))
		if n, err := h.Pread(p, buf, 0); err != nil || n != len(buf) {
			t.Errorf("pread = %d, %v", n, err)
		} else if !bytes.Equal(buf, synced) {
			t.Error("a fresh mount reads bytes that were never synced")
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

// A replica's frame list reads back exactly what a flat buffer with the
// same writes holds (grow, then copy: a write replaces [off, end), a gap
// reads as zeros, the length is the largest end), over a seeded mix of
// appends, appends past a gap, out-of-order frames and overlapping
// rewrites. No write may touch the bytes of a frame it was handed.
func TestReplicaMatchesFlatBuffer(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rep extReplica
		var flat []byte
		var handed, kept [][]byte
		for op := 0; op < 200; op++ {
			size := int64(len(flat))
			n := int64(rng.Intn(300))
			var off int64
			switch k := rng.Intn(10); {
			case k < 5: // append at the end
				off = size
			case k < 7: // append past a gap
				off = size + int64(rng.Intn(200))
			default: // anywhere below the end: out of order or a rewrite
				off = rng.Int63n(size + 1)
			}
			data := make([]byte, n)
			rng.Read(data)
			handed = append(handed, data)
			kept = append(kept, append([]byte(nil), data...))
			rep.write(off, data)
			flat = grow(flat, off+n)
			copy(flat[off:], data)

			if rep.size != int64(len(flat)) {
				t.Fatalf("seed %d op %d: size %d, flat %d", seed, op, rep.size, len(flat))
			}
			lo := rng.Int63n(rep.size + 1)
			hi := lo + rng.Int63n(rep.size-lo+1)
			got := make([]byte, hi-lo)
			rep.readAt(got, lo)
			if !bytes.Equal(got, flat[lo:hi]) {
				t.Fatalf("seed %d op %d: [%d,%d) differs from the flat buffer", seed, op, lo, hi)
			}
		}
		got := make([]byte, rep.size)
		rep.readAt(got, 0)
		if !bytes.Equal(got, flat) {
			t.Fatalf("seed %d: whole replica differs from the flat buffer", seed)
		}
		for i := range handed {
			if !bytes.Equal(handed[i], kept[i]) {
				t.Fatalf("seed %d: write %d's frame was written into", seed, i)
			}
		}
	}
}
