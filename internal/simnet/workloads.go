package simnet

import (
	"fmt"
	"time"
)

// Workloads are the scheduler hot-path micro-workloads, defined once. Spawn
// adds the workload's procs to a fresh Sim, sized to n operations — one op
// is one dispatched simulator event, or one higher-level operation built
// from a fixed number of events — and the caller runs the Sim. This
// package's testing.B benchmark runs each with n = b.N; `splitft-bench perf`
// runs each at a fixed size and writes BENCH_simnet.json. A failed
// operation panics its proc, which Sim.Run reports as the run's error.
var Workloads = []struct {
	Name  string
	Spawn func(s *Sim, n int)
}{
	// The headline: a single proc sleeping in a tight loop. Every iteration
	// is one schedule + one dispatch, a self-continuation that never touches
	// a channel.
	{"event-churn", func(s *Sim, n int) {
		s.Go("churn", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}},
	// Event churn with 64 concurrent sleepers, so the event queue holds real
	// depth and every dispatch switches procs.
	{"event-churn-fanout", func(s *Sim, n int) {
		const procs = 64
		for i := 0; i < procs; i++ {
			s.Go(fmt.Sprintf("churn%d", i), func(p *Proc) {
				p.Sleep(time.Duration(i) * time.Nanosecond) // stagger phases
				for j := 0; j < n/procs; j++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
	}},
	// Two procs interleaving at the same virtual instant — the run-queue
	// fast path (no virtual time ever passes).
	{"yield-pingpong", func(s *Sim, n int) {
		for i := 0; i < 2; i++ {
			s.Go(fmt.Sprintf("y%d", i), func(p *Proc) {
				for j := 0; j < n/2; j++ {
					p.Yield()
				}
			})
		}
	}},
	// One message bounced between two procs; each op is a full send +
	// blocked-receive wake-up round trip.
	{"chan-pingpong", func(s *Sim, n int) {
		ping, pong := NewChan[int](s), NewChan[int](s)
		s.Go("ping", func(p *Proc) {
			for i := 0; i < n; i++ {
				ping.Send(p, i)
				pong.Recv(p)
			}
		})
		s.Go("pong", func(p *Proc) {
			for i := 0; i < n; i++ {
				ping.Recv(p)
				pong.Send(p, i)
			}
		})
	}},
	// One Mutex hammered from 8 procs with a Yield inside the critical
	// section: waiter queueing and direct handoff.
	{"mutex-convoy", func(s *Sim, n int) {
		const procs = 8
		mu := new(Mutex)
		for i := 0; i < procs; i++ {
			s.Go(fmt.Sprintf("m%d", i), func(p *Proc) {
				for j := 0; j < n/procs; j++ {
					mu.Lock(p)
					p.Yield()
					mu.Unlock(p)
				}
			})
		}
	}},
	// A full simulated RPC: two Chan hops, the dispatcher handoff to a
	// pooled worker, and timeout bookkeeping.
	{"rpc-echo", func(s *Sim, n int) {
		srv, cli := s.NewNode("srv"), s.NewNode("cli")
		s.Net().Register("echo", srv, func(p *Proc, req Msg) (Msg, error) { return req, nil })
		s.Go("caller", func(p *Proc) {
			for i := 0; i < n; i++ {
				if _, err := s.Net().Call(p, cli, "echo", Msg{U: [4]uint64{uint64(i)}}); err != nil {
					panic(err)
				}
			}
		})
	}},
}
