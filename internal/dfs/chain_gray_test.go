package dfs

import (
	"bytes"
	"testing"
	"time"

	"splitft/internal/simnet"
)

// Regression: a gray (slow-but-alive) mid chain member is blamed by the
// depth-scaled hop timeout exactly like a crashed one. The write must
// succeed by re-forming — but the blame must expire: after the link heals
// and the blame window passes, the node re-enters chain selection
// instead of being excluded for the mount's lifetime.
func TestGrayMidNodeProbationAndReadmission(t *testing.T) {
	fx := newExtFixture(6, failParams())
	payload := pattern(1 << 20) // exactly one 1 MiB extent
	fx.node.Go("writer", func(p *simnet.Proc) {
		h, err := fx.client.OpenFile(p, "/ext/g", true, true)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// Extent 0's chain is sn0 -> sn1 -> sn2. Make the head->mid hop gray:
		// 500 ms one-way exceeds the mid hop's 400 ms budget, so the head
		// times out on a healthy node and blames it.
		head, mid := fx.sns[0], fx.sns[1]
		fx.sim.Net().SetLinkLatency(head, mid, 500*time.Millisecond)
		h.Write(p, payload)
		if err := h.Sync(p); err != nil {
			t.Errorf("sync across the gray hop: %v", err)
		}
		if got, ok := fx.cluster.DurableBytes("/ext/g"); !ok || !bytes.Equal(got, payload) {
			t.Errorf("durable mismatch after gray re-form (ok=%v)", ok)
		}
		if !fx.client.blame.Blamed(mid.Name()) {
			t.Errorf("%s not blamed after the timeout", mid.Name())
		}

		// Heal the link and wait out the blame window: the blame expires.
		fx.sim.Net().SetLinkLatency(head, mid, 0)
		p.Sleep(simnet.BlameWindow + 100*time.Millisecond)
		if fx.client.blame.Blamed(mid.Name()) {
			t.Errorf("%s still blamed after the blame window", mid.Name())
		}

		// And the healed node actually serves chains again: the next extents
		// (IDs 2, 3 -> chains starting at sn6 and sn1) include it.
		h.Write(p, pattern(2<<20))
		if err := h.Sync(p); err != nil {
			t.Errorf("post-heal sync: %v", err)
		}
		readmitted := false
		for _, sg := range fx.cluster.files["/ext/g"].ext.segs {
			if sg.ext < 2 {
				continue
			}
			for _, addr := range sg.nodes {
				if addr == mid.Name() {
					readmitted = true
				}
			}
		}
		if !readmitted {
			t.Errorf("healed node %s never re-admitted to a chain", mid.Name())
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}

// When blame piles up until fewer than ChainLength candidates remain,
// chainFor re-admits the whole blame set instead of starving: capacity
// beats blame. (Before the fix this returned an error forever, even after
// every blamed node recovered.)
func TestChainForReadmitsWhenSuspectsStarveSelection(t *testing.T) {
	fx := newExtFixture(7, failParams()) // 8 nodes, ChainLength 3
	fx.node.Go("test", func(p *simnet.Proc) {
		for i := 0; i < 6; i++ {
			fx.client.blame.Blame(fx.sns[i].Name())
		}
		nodes, err := fx.client.chainFor(0)
		if err != nil {
			t.Errorf("chainFor starved with 2 clean nodes of 8: %v", err)
		}
		if len(nodes) != 3 {
			t.Errorf("chainFor returned %d nodes, want 3", len(nodes))
		}
		if blamed := fx.client.blame.Names(); len(blamed) != 0 {
			t.Errorf("blame set not cleared by re-admission: %v", blamed)
		}
		fx.sim.Stop()
	})
	run(t, fx.sim)
}
