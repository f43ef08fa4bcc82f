package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Property: the merged heap + run-queue dispatch order equals a reference
// sort.SliceStable replay of (at, seq) over the same schedule. The driver
// below mimics Sim.Run against the raw queues: it interleaves schedule calls
// (biased toward same-instant bursts, which take the run-queue fast path)
// with pops that advance the clock, exactly the discrete-event invariant the
// scheduler relies on.
func TestDispatchOrderMatchesStableSortReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := New(seed)
		rng := rand.New(rand.NewSource(seed))
		dummy := &Proc{sim: s}

		type ref struct {
			at  time.Duration
			seq uint64
		}
		var scheduled []ref // appended in seq order
		var dispatched []ref

		schedule := func() {
			var d time.Duration
			switch rng.Intn(4) {
			case 0, 1: // same-instant burst: run-queue fast path
				d = 0
			case 2:
				d = time.Duration(rng.Intn(5)) * time.Microsecond
			default:
				d = time.Duration(rng.Intn(1000)) * time.Microsecond
			}
			at := s.now + d
			s.schedule(at, dummy, 0)
			scheduled = append(scheduled, ref{at: at, seq: s.seq})
		}

		// Seed the queues, then interleave scheduling and dispatching.
		for i := 0; i < 10; i++ {
			schedule()
		}
		for i := 0; i < 3000; i++ {
			if rng.Intn(2) == 0 && s.pending() {
				e := s.popMin()
				if e.at < s.now {
					t.Fatalf("seed %d: event at %v dispatched after clock reached %v", seed, e.at, s.now)
				}
				s.now = e.at
				dispatched = append(dispatched, ref{at: e.at, seq: e.seq})
			} else {
				schedule()
			}
		}
		for s.pending() {
			e := s.popMin()
			s.now = e.at
			dispatched = append(dispatched, ref{at: e.at, seq: e.seq})
		}

		// scheduled is already in seq order, so a stable sort by at alone
		// yields the required (at, seq) total order.
		expect := append([]ref(nil), scheduled...)
		sort.SliceStable(expect, func(i, j int) bool { return expect[i].at < expect[j].at })
		if len(dispatched) != len(expect) {
			t.Fatalf("seed %d: dispatched %d of %d events", seed, len(dispatched), len(expect))
		}
		for i := range expect {
			if dispatched[i] != expect[i] {
				t.Fatalf("seed %d: dispatch[%d] = %+v, reference %+v", seed, i, dispatched[i], expect[i])
			}
		}
	}
}

// Same property end to end through the public API: procs sleeping random
// durations (many zero) must run in (wake time, schedule order) order.
func TestProcDispatchOrderSameInstantBursts(t *testing.T) {
	s := New(3)
	rng := rand.New(rand.NewSource(3))
	type wake struct {
		at   time.Duration
		proc int
	}
	var order []wake
	const procs = 40
	for i := 0; i < procs; i++ {
		i := i
		d := time.Duration(rng.Intn(3)) * time.Microsecond // heavy tie density
		s.Go(fmt.Sprint(i), func(p *Proc) {
			p.Sleep(d)
			order = append(order, wake{at: p.Now(), proc: i})
			p.Yield() // same-instant burst through the run queue
			order = append(order, wake{at: p.Now(), proc: i})
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2*procs {
		t.Fatalf("recorded %d wake-ups, want %d", len(order), 2*procs)
	}
	for i := 1; i < len(order); i++ {
		if order[i].at < order[i-1].at {
			t.Fatalf("wake %d at %v before previous at %v", i, order[i].at, order[i-1].at)
		}
	}
	// Within each instant, first wake-ups run in spawn order, then the
	// yielded continuations in the same order.
	byInstant := map[time.Duration][]int{}
	var instants []time.Duration
	for _, w := range order {
		if _, ok := byInstant[w.at]; !ok {
			instants = append(instants, w.at)
		}
		byInstant[w.at] = append(byInstant[w.at], w.proc)
	}
	for _, at := range instants {
		seq := byInstant[at]
		half := len(seq) / 2
		for i := 1; i < half; i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("instant %v: first wake-ups out of spawn order: %v", at, seq)
			}
		}
		for i := half + 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("instant %v: yield continuations out of order: %v", at, seq)
			}
		}
	}
}

// The run queue must stay a correct ring across wrap-around and growth.
func TestRunQueueWrapAndGrow(t *testing.T) {
	var q runQueue
	next := uint64(0)
	pop := uint64(0)
	for round := 0; round < 5000; round++ {
		for i := 0; i < 3; i++ {
			next++
			q.push(event{seq: next})
		}
		for i := 0; i < 2; i++ {
			pop++
			if got := q.pop().seq; got != pop {
				t.Fatalf("round %d: popped seq %d, want %d", round, got, pop)
			}
		}
	}
	for q.len() > 0 {
		pop++
		if got := q.pop().seq; got != pop {
			t.Fatalf("drain: popped seq %d, want %d", got, pop)
		}
	}
	if pop != next {
		t.Fatalf("popped %d of %d events", pop, next)
	}
}

// The 4-ary heap must agree with a sort on random inputs.
func TestEventHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var h eventHeap
	var ref []event
	for i := 0; i < 4000; i++ {
		e := event{at: time.Duration(rng.Intn(64)), seq: uint64(i)}
		h.push(e)
		ref = append(ref, e)
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
	for i, want := range ref {
		got := h.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, got.at, got.seq, want.at, want.seq)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after draining: %d left", h.len())
	}
}

// The same property with stale events mixed in: procs are woken early at
// random (their generation moves on, as when a reply beats a deadline), so
// compaction drops their queued events mid-schedule. The reference is still
// the stable sort of everything scheduled: walking it, an event dispatches
// exactly when its proc's generation, after every bump that preceded that
// dispatch, is the one it was scheduled under.
func TestDispatchOrderWithEarlyWakeupsMatchesStableSortReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := New(seed)
		rng := rand.New(rand.NewSource(seed))
		procs := make([]*Proc, 8)
		for i := range procs {
			procs[i] = &Proc{sim: s, id: uint64(i)}
		}

		type ref struct {
			at  time.Duration
			seq uint64
			p   int
			gen uint64
		}
		var scheduled []ref // appended in seq order
		var dispatched []ref
		// bumps[i] holds, per generation bump of proc i, how many events had
		// dispatched when it happened.
		bumps := make([][]int, len(procs))
		compactions := 0
		bump := func(i int) {
			before := len(s.heap.a)
			procs[i].nextGen()
			bumps[i] = append(bumps[i], len(dispatched))
			if len(s.heap.a) < before {
				compactions++
			}
		}
		schedule := func() {
			i := rng.Intn(len(procs))
			var d time.Duration
			switch rng.Intn(4) {
			case 0: // same-instant: run-queue fast path
			case 1:
				d = time.Duration(rng.Intn(5)) * time.Microsecond
			default:
				d = time.Duration(rng.Intn(1000)) * time.Microsecond
			}
			at := s.now + d
			s.schedule(at, procs[i], procs[i].gen)
			scheduled = append(scheduled, ref{at: at, seq: s.seq, p: i, gen: procs[i].gen})
		}
		dispatch := func() bool {
			e, ok := s.nextLive()
			if !ok {
				return false
			}
			if e.at < s.now {
				t.Fatalf("seed %d: event at %v dispatched after clock reached %v", seed, e.at, s.now)
			}
			s.now = e.at
			dispatched = append(dispatched, ref{at: e.at, seq: e.seq, p: int(e.p.id), gen: e.gen})
			bump(int(e.p.id)) // the dispatched proc resumes
			return true
		}

		for i := 0; i < 3000; i++ {
			switch r := rng.Intn(8); {
			case r < 2:
				dispatch()
			case r < 3:
				bump(rng.Intn(len(procs))) // an early wake-up
			default:
				schedule()
			}
		}
		for dispatch() {
		}
		if compactions == 0 {
			t.Fatalf("seed %d: no compaction ran; the schedule does not exercise it", seed)
		}

		expect := append([]ref(nil), scheduled...)
		sort.SliceStable(expect, func(i, j int) bool { return expect[i].at < expect[j].at })
		var live []ref
		for _, e := range expect {
			gen := uint64(0)
			for _, at := range bumps[e.p] {
				if at <= len(live) {
					gen++
				}
			}
			if gen == e.gen {
				live = append(live, e)
			}
		}
		if len(dispatched) != len(live) {
			t.Fatalf("seed %d: dispatched %d events, reference %d", seed, len(dispatched), len(live))
		}
		for i := range live {
			if dispatched[i] != live[i] {
				t.Fatalf("seed %d: dispatch[%d] = %+v, reference %+v", seed, i, dispatched[i], live[i])
			}
		}
	}
}

// A wait answered long before its deadline abandons the deadline event. An
// RPC client calling with a 10 s timeout against a server that answers in
// microseconds must not keep every call's deadline queued: the heap stays
// within twice its live events plus compactFloor.
func TestAbandonedDeadlinesLeaveTheHeap(t *testing.T) {
	s := New(1)
	srv, cli := s.NewNode("srv"), s.NewNode("cli")
	s.Net().Register("echo", srv, func(p *Proc, req Msg) (Msg, error) { return req, nil })
	s.Go("caller", func(p *Proc) {
		for i := 0; i < 100000; i++ {
			if _, err := s.Net().CallTimeout(p, cli, "echo", Msg{}, 10*time.Second); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			live := 0
			for _, e := range s.heap.a {
				if !e.p.done && e.gen == e.p.gen {
					live++
				}
			}
			if n := len(s.heap.a); n > 2*live+compactFloor {
				t.Errorf("after call %d the heap holds %d events, %d of them live", i, n, live)
				return
			}
		}
	})
	run(t, s)
}

// RunUntil moves the clock to its horizon when events lie past it, stale
// ones included. Compaction may drop every such event from the heap; the
// horizon exit must still end at the horizon, as when they stayed queued.
func TestRunUntilEndsAtHorizonPastDroppedEvents(t *testing.T) {
	s := New(1)
	s.NewNode("n").GoInline("waker", func(p *Proc) bool {
		for i := 0; i < 2*compactFloor; i++ {
			p.WakeAfter(time.Hour)
		}
		return true // ends: every wake-up it queued is stale
	})
	if err := s.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(s.heap.a) != 0 {
		t.Fatalf("%d stale events still queued; compaction did not drop them", len(s.heap.a))
	}
	if s.Now() != time.Minute {
		t.Fatalf("now = %v, want the horizon %v", s.Now(), time.Minute)
	}
}
