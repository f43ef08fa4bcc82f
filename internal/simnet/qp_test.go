package simnet_test

import (
	"testing"
	"time"

	"splitft/internal/rdma"
	"splitft/internal/simnet"
)

// startWRStream connects one QP from node "app" to a 4 KiB region on node
// "peer" and spawns a proc that posts n 128 B writes on it, one at a time,
// each awaited on the CQ (n < 0: forever): the WR path alone, post →
// engine → completion, on the scheduler.
func startWRStream(s *simnet.Sim, n int) {
	f := rdma.NewFabric(s, rdma.DefaultParams())
	app, peer := s.NewNode("app"), s.NewNode("peer")
	appNIC, peerNIC := f.AttachNIC(app), f.AttachNIC(peer)
	app.Go("poster", func(p *simnet.Proc) {
		mr, err := peerNIC.RegisterMR(p, make([]byte, 4096), 4096)
		if err != nil {
			panic(err)
		}
		cq := rdma.NewCQ(s)
		qp, err := appNIC.Connect(p, "peer", cq)
		if err != nil {
			panic(err)
		}
		data := make([]byte, 128)
		for i := 0; i != n; i++ {
			qp.PostWrite(p, mr.RKey(), 0, data, uint64(i))
			if c, _ := cq.Poll(p); c.Err != nil {
				panic(c.Err)
			}
		}
	})
}

// The QP engine allocates nothing in steady state: a stream of writes on one
// QP, post to completion, is held to 0 allocations per window of ~6,000
// WRs, with the scheduler gates' estimator (the least of several windows).
func TestWRPathSteadyStateZeroAlloc(t *testing.T) {
	if simnet.RaceEnabled {
		t.Skip("allocation counts perturbed by -race; gated in the non-race CI job")
	}
	s := simnet.New(1)
	startWRStream(s, -1)
	if n := simnet.SteadyStateMallocs(t, s, 100*time.Millisecond, 10*time.Millisecond); n != 0 {
		t.Fatalf("the WR path allocated %d times in steady state, want 0", n)
	}
}

// BenchmarkQPWrite is one 128 B RDMA write per op, posted and awaited on one
// QP: what a work request costs the host, scheduler included.
func BenchmarkQPWrite(b *testing.B) {
	s := simnet.New(1)
	startWRStream(s, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
