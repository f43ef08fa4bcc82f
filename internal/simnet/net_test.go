package simnet

import (
	"errors"
	"testing"
	"time"

	"splitft/internal/trace"
)

// Edge-case tests for the RPC layer: exact timeout boundaries, partitions
// cut and healed mid-flight, and servers dying with requests queued. All
// are pinned to exact virtual times — the simulator is deterministic per
// seed, so any drift is a behavior change, not noise.

// A reply arriving exactly at the timeout instant is delivered, not timed
// out: ready items are drained before the deadline is checked. One tick
// less budget and the call times out at the deadline.
func TestRPCTimeoutExactlyAtLatencyBoundary(t *testing.T) {
	s := New(1)
	srv := s.NewNode("srv")
	cli := s.NewNode("cli")
	s.Net().SetLatency(srv, cli, 100*time.Microsecond) // RTT = 200us
	s.Net().Register("echo", srv, func(p *Proc, req Msg) (Msg, error) { return req, nil })
	s.Go("exact", func(p *Proc) {
		start := p.Now()
		if _, err := s.Net().CallTimeout(p, cli, "echo", Msg{}, 200*time.Microsecond); err != nil {
			t.Errorf("timeout == RTT: err = %v, want delivery at the boundary", err)
		}
		if got := p.Now() - start; got != 200*time.Microsecond {
			t.Errorf("boundary call took %v, want exactly 200us", got)
		}

		start = p.Now()
		_, err := s.Net().CallTimeout(p, cli, "echo", Msg{}, 200*time.Microsecond-time.Nanosecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("timeout just under RTT: err = %v, want ErrTimeout", err)
		}
		if got := p.Now() - start; got != 200*time.Microsecond-time.Nanosecond {
			t.Errorf("sub-boundary call took %v, want exactly the timeout", got)
		}
	})
	run(t, s)
}

// Reachability is evaluated twice: at request send and at reply send. A
// partition already up when the call starts drops the request — healing
// before the timeout cannot resurrect it. A partition cut after the
// request is sent but healed before the handler replies is harmless.
func TestRPCPartitionHealedMidFlight(t *testing.T) {
	s := New(1)
	srv := s.NewNode("srv")
	cli := s.NewNode("cli")
	s.Net().SetLatency(srv, cli, 100*time.Microsecond)
	s.Net().Register("slow", srv, func(p *Proc, req Msg) (Msg, error) {
		p.Sleep(time.Millisecond)
		return req, nil
	})

	// Case 1: partitioned at send, healed well before the timeout — the
	// request was dropped on the floor, so the call still times out.
	s.Go("heal-too-late", func(p *Proc) {
		s.Net().Partition(cli, srv)
		start := p.Now()
		done := false
		p.sim.Go("healer", func(hp *Proc) {
			hp.Sleep(100 * time.Microsecond)
			s.Net().Heal(cli, srv)
			done = true
		})
		_, err := s.Net().CallTimeout(p, cli, "slow", Msg{}, 5*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("dropped request err = %v, want ErrTimeout", err)
		}
		if got := p.Now() - start; got != 5*time.Millisecond {
			t.Errorf("timed out after %v, want exactly 5ms", got)
		}
		if !done {
			t.Error("healer never ran")
		}

		// Case 2: partition cut while the handler runs, healed before it
		// replies. The in-flight request was already delivered and the link
		// is back by reply time, so the call completes at the normal RTT +
		// handler time.
		start = p.Now()
		p.sim.Go("flicker", func(fp *Proc) {
			fp.Sleep(200 * time.Microsecond) // request delivered at +100us
			s.Net().Partition(cli, srv)
			fp.Sleep(300 * time.Microsecond)
			s.Net().Heal(cli, srv) // healed at +500us; reply sends at +1.1ms
		})
		if _, err := s.Net().CallTimeout(p, cli, "slow", Msg{}, 5*time.Millisecond); err != nil {
			t.Errorf("healed-before-reply call err = %v, want success", err)
		}
		if got := p.Now() - start; got != 1200*time.Microsecond {
			t.Errorf("healed call took %v, want 1.2ms (RTT + 1ms handler)", got)
		}
	})
	run(t, s)
}

// A server killed while a request is still in flight toward it (or queued
// in its inbox) never serves it: the dispatcher died with the node, the
// request rots in the inbox, and the caller times out on schedule.
func TestRPCServerKilledWhileRequestQueued(t *testing.T) {
	s := New(1)
	srv := s.NewNode("srv")
	cli := s.NewNode("cli")
	s.Net().SetLatency(srv, cli, 100*time.Microsecond)
	served := false
	s.Net().Register("svc", srv, func(p *Proc, req Msg) (Msg, error) {
		served = true
		return req, nil
	})
	s.Go("caller", func(p *Proc) {
		start := p.Now()
		_, err := s.Net().CallTimeout(p, cli, "svc", Msg{}, 2*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if got := p.Now() - start; got != 2*time.Millisecond {
			t.Errorf("timed out after %v, want exactly 2ms", got)
		}
	})
	s.Go("killer", func(p *Proc) {
		p.Sleep(50 * time.Microsecond) // request is mid-flight (delivery at 100us)
		srv.Crash()
	})
	run(t, s)
	if served {
		t.Fatal("handler ran on a crashed server")
	}
}

// The RPC steady-state zero-alloc gate (companion to the scheduler gates in
// sched_test.go): once the reply-record freelist and worker pool are warm,
// an echo loop must not allocate at all — no interface boxing, no per-call
// closures, no per-request proc spawns.
func TestRPCEchoSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts perturbed by -race; gated in the non-race CI job")
	}
	s := New(1)
	srv := s.NewNode("srv")
	cli := s.NewNode("cli")
	s.Net().Register("echo", srv, func(p *Proc, req Msg) (Msg, error) { return req, nil })
	s.Go("caller", func(p *Proc) {
		for i := uint64(0); ; i++ {
			if _, err := s.Net().Call(p, cli, "echo", Msg{U: [4]uint64{i}}); err != nil {
				return // sim stopping
			}
		}
	})
	// Warm-up must span one full RPC timeout window: every call parks with a
	// deadline event that goes stale when the reply wakes it early, so the
	// event heap only reaches its steady size (one dead event per call in
	// the last DefaultRPCTimeout) after ~200ms. Each window is ~2000 calls.
	if n := steadyStateMallocs(t, s, DefaultRPCTimeout+50*time.Millisecond, 100*time.Millisecond); n != 0 {
		t.Fatalf("rpc echo allocated %d times in steady state, want 0", n)
	}
}

// AllocsPerRun variant: an entire run of 20k echo calls (60k events) costs
// only its fixed setup, enforcing ~0 allocs/event for the full call path
// without reaching into MemStats.
func TestRPCEchoAllocsPerRunBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts perturbed by -race; gated in the non-race CI job")
	}
	const calls = 20000
	allocs := testing.AllocsPerRun(3, func() {
		s := New(1)
		srv := s.NewNode("srv")
		cli := s.NewNode("cli")
		s.Net().Register("echo", srv, func(p *Proc, req Msg) (Msg, error) { return req, nil })
		s.Go("caller", func(p *Proc) {
			for i := 0; i < calls; i++ {
				if _, err := s.Net().Call(p, cli, "echo", Msg{}); err != nil {
					panic(err)
				}
			}
		})
		if err := s.Run(); err != nil {
			panic(err)
		}
	})
	if allocs > 150 {
		t.Fatalf("20k-call echo run cost %.0f allocs (%.4f/call), want setup-only", allocs, allocs/calls)
	}
}

// Attaching a tracer must surface the RPC layer: one "call:" span per
// Call on the client proc and one "serve:" span per dispatch on the
// worker, with the serve span parented under the caller's span (the
// worker adopts the call span before opening its own). The worker pool
// reuses procs across requests, so this also checks that span context
// does not leak between consecutive requests from different callers.
func TestRPCSpansEmittedWithTracer(t *testing.T) {
	s := New(1)
	col := trace.New()
	s.SetTracer(col)
	srv := s.NewNode("srv")
	cli := s.NewNode("cli")
	s.Net().Register("echo", srv, func(p *Proc, req Msg) (Msg, error) { return req, nil })
	const calls = 3
	s.Go("caller", func(p *Proc) {
		for i := 0; i < calls; i++ {
			if _, err := s.Net().Call(p, cli, "echo", Msg{}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	run(t, s)

	spans := col.Spans()
	callSpans := trace.Filter(spans, "rpc", "call:echo")
	serveSpans := trace.Filter(spans, "rpc", "serve:echo")
	if len(callSpans) != calls || len(serveSpans) != calls {
		t.Fatalf("got %d call / %d serve spans, want %d each", len(callSpans), len(serveSpans), calls)
	}
	for i, sv := range serveSpans {
		if !sv.Done() {
			t.Errorf("serve span %d never ended", i)
		}
		if sv.Parent != callSpans[i].ID {
			t.Errorf("serve span %d parented to %d, want call span %d", i, sv.Parent, callSpans[i].ID)
		}
		if got := sv.StrAttr("from"); got != "cli" {
			t.Errorf("serve span %d from = %q, want %q", i, got, "cli")
		}
	}
}
