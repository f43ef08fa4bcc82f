package simnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Tests for the scheduler hot path: negative-sleep clamping, deterministic
// teardown, kill/stale-generation edges, waiter recycling, and the
// zero-allocation steady-state gates.

// Sleep with a negative duration must clamp to a plain yield: time does not
// move (and certainly not backwards), and procs already queued at the
// current instant run first.
func TestNegativeSleepClampsToYield(t *testing.T) {
	s := New(1)
	var log []string
	s.Go("neg", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		before := p.Now()
		p.Sleep(-time.Hour)
		if p.Now() != before {
			t.Errorf("negative sleep moved time from %v to %v", before, p.Now())
		}
		log = append(log, "neg")
	})
	s.Go("peer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		log = append(log, "peer")
	})
	run(t, s)
	// "neg" reaches 2ms first (spawned first), its Sleep(-1h) requeues it
	// behind "peer" at the same instant.
	if fmt.Sprint(log) != "[peer neg]" {
		t.Fatalf("order = %v, want negative sleep to requeue behind peer", log)
	}
}

// drain must tear down leftover procs in spawn order (the intrusive list
// replaced a Go map here, whose iteration order varied run to run).
// Teardown order is observable: killed procs unwind through their defers.
func TestDrainOrderIsSpawnOrder(t *testing.T) {
	for round := 0; round < 5; round++ {
		s := New(1)
		var torn []int
		for i := 0; i < 8; i++ {
			i := i
			s.Go(fmt.Sprint(i), func(p *Proc) {
				defer func() { torn = append(torn, i) }()
				p.Sleep(time.Hour)
			})
		}
		if err := s.RunUntil(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(torn) != "[0 1 2 3 4 5 6 7]" {
			t.Fatalf("round %d: teardown order = %v, want spawn order", round, torn)
		}
	}
}

// A proc killed while its wake-up sits in the same-instant run queue must
// not run again: the queued event is stale the moment the kill unwinds it.
func TestKillWhileQueuedInRunQueue(t *testing.T) {
	s := New(1)
	n := s.NewNode("victim")
	resumed := false
	s.Go("driver", func(p *Proc) {
		p.Sleep(time.Millisecond)
		n.Go("yielder", func(vp *Proc) {
			vp.Yield() // parked with a wake-up in the run queue at s.now
			resumed = true
		})
		p.Yield() // let the yielder run up to its Yield
		n.Crash() // same instant: the yield wake-up is still queued
	})
	run(t, s)
	if resumed {
		t.Fatal("proc ran past Yield after its node crashed at the same instant")
	}
	if s.pending() {
		t.Fatalf("stale events left in the queues after run")
	}
}

// A wake event for an earlier generation must be discarded even when the
// proc has since started (and finished) a new blocking episode at the same
// instant — the classic timeout-vs-signal race, here aggravated by waiter
// recycling.
func TestStaleGenerationWakeIsSkipped(t *testing.T) {
	s := New(1)
	ch := NewChan[int](s)
	var got []int
	s.Go("recv", func(p *Proc) {
		// Times out at 1ms: leaves a cancelled waiter in ch's queue and a
		// claimed-but-stale state behind.
		if _, _, timedOut := ch.RecvTimeout(p, time.Millisecond); !timedOut {
			t.Error("first recv should time out")
		}
		// Immediately block again; the next message must be delivered once.
		v, ok := ch.Recv(p)
		if !ok {
			t.Error("second recv failed")
		}
		got = append(got, v)
		if v, ok := ch.TryRecv(p); ok {
			t.Errorf("message delivered twice: %d", v)
		}
	})
	s.Go("send", func(p *Proc) {
		p.Sleep(time.Millisecond) // lands exactly at the timeout instant
		ch.Send(p, 42)
	})
	run(t, s)
	if fmt.Sprint(got) != "[42]" {
		t.Fatalf("got %v, want [42]", got)
	}
}

// Waiter records cycle through the freelist across timed-out and signalled
// waits without cross-talk between blocking episodes.
func TestWaiterRecyclingAcrossTimeoutsAndSignals(t *testing.T) {
	s := New(1)
	var mu Mutex
	cond := NewCond(&mu)
	ready := false
	timeouts, wakes := 0, 0
	s.Go("waiter", func(p *Proc) {
		for i := 0; i < 100; i++ {
			mu.Lock(p)
			ready = false
			for !ready {
				if cond.WaitTimeout(p, time.Millisecond) {
					timeouts++
					break
				}
			}
			if ready {
				wakes++
			}
			mu.Unlock(p)
			p.Sleep(time.Millisecond)
		}
	})
	s.Go("signaller", func(p *Proc) {
		for i := 0; i < 100; i++ {
			// Alternate between beating the timeout and missing it.
			if i%2 == 0 {
				p.Sleep(500 * time.Microsecond)
			} else {
				p.Sleep(1500 * time.Microsecond)
			}
			mu.Lock(p)
			ready = true
			cond.Signal(p)
			mu.Unlock(p)
		}
	})
	run(t, s)
	if timeouts == 0 || wakes == 0 {
		t.Fatalf("want a mix of timeouts and wakes, got %d timeouts, %d wakes", timeouts, wakes)
	}
	if timeouts+wakes != 100 {
		t.Fatalf("timeouts (%d) + wakes (%d) != 100 rounds", timeouts, wakes)
	}
}

// Steady-state Sleep churn must not allocate: events are values in reused
// slabs and the self-continuation path touches no channel.
func TestSleepChurnSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts perturbed by -race; gated in the non-race CI job")
	}
	s := New(1)
	for i := 0; i < 8; i++ {
		s.Go(fmt.Sprintf("churn%d", i), func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
	}
	// Warm-up: slabs reach steady capacity. Each window is ~80k events.
	if n := steadyStateMallocs(t, s, time.Millisecond, 10*time.Millisecond); n != 0 {
		t.Fatalf("Sleep churn allocated %d times in steady state, want 0", n)
	}
}

// steadyStateMallocs runs s with a monitor proc that sleeps through warmup
// and then diffs runtime.MemStats.Mallocs over consecutive windows of
// virtual time, all inside the one simulation run so warm-up (slab growth,
// goroutine stacks) is excluded. It returns the smallest per-window count.
// The counter is process-wide, and the Go runtime's own background
// goroutines (GC workers, timers, the test harness) allocate a few objects
// whenever they please; that noise only ever adds to a window, so the
// minimum over several windows is the right estimator of what the
// simulation itself allocates — and the bound it is held to stays exactly 0.
// A window that reads 0 ends the run early.
func steadyStateMallocs(t *testing.T, s *Sim, warmup, window time.Duration) uint64 {
	t.Helper()
	least := ^uint64(0)
	s.Go("monitor", func(p *Proc) {
		p.Sleep(warmup)
		var m0, m1 runtime.MemStats
		for i := 0; i < 20 && least != 0; i++ {
			runtime.ReadMemStats(&m0)
			p.Sleep(window)
			runtime.ReadMemStats(&m1)
			if d := m1.Mallocs - m0.Mallocs; d < least {
				least = d
			}
		}
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return least
}

// Same gate for Yield churn (the run-queue fast path) plus blocked-receive
// wake-ups through the waiter freelist.
func TestYieldAndChanChurnSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts perturbed by -race; gated in the non-race CI job")
	}
	s := New(1)
	ping := NewChan[int](s)
	pong := NewChan[int](s)
	s.Go("ping", func(p *Proc) {
		for i := 0; ; i++ {
			ping.Send(p, 1)
			pong.Recv(p)
			if i%64 == 63 {
				p.Sleep(time.Microsecond) // let virtual time advance
			} else {
				p.Yield()
			}
		}
	})
	s.Go("pong", func(p *Proc) {
		for {
			ping.Recv(p)
			pong.Send(p, 1)
			p.Yield()
		}
	})
	if n := steadyStateMallocs(t, s, time.Millisecond, 10*time.Millisecond); n != 0 {
		t.Fatalf("Yield/Chan churn allocated %d times in steady state, want 0", n)
	}
}

// AllocsPerRun variant of the gate: a whole 200k-event churn run costs only
// its fixed setup (Sim, proc, slab growth), enforcing ~0 allocs/event
// without reaching into MemStats.
func TestSleepChurnAllocsPerRunBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts perturbed by -race; gated in the non-race CI job")
	}
	const events = 200000
	allocs := testing.AllocsPerRun(3, func() {
		s := New(1)
		s.Go("churn", func(p *Proc) {
			for i := 0; i < events; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			panic(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("200k-event churn run cost %.0f allocs (%.4f/event), want setup-only", allocs, allocs/events)
	}
}
