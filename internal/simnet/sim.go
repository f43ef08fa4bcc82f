// Package simnet is a deterministic discrete-event simulator for a small
// cluster of machines. It is the substrate every other package in this
// repository runs on: the simulated RDMA fabric, the disaggregated file
// system, the NCL controller, log peers, and the ported applications all
// execute as cooperative tasks ("procs") on simulated nodes driven by a
// virtual clock.
//
// The paper evaluates SplitFT on real hardware (CloudLab, 25 Gb RoCE).
// Reproducing microsecond-scale remote-memory logging in Go on real time is
// hopeless (GC pauses and timer granularity are both orders of magnitude
// larger than a 4.6 us RDMA write), so the repository substitutes a virtual
// clock: latencies come from calibrated cost models and the protocol code
// runs unchanged on top.
//
// Concurrency model: exactly one proc runs at a time. A single execution
// token moves between the driver (Sim.Run) and the proc goroutines. On the
// hot path the token is handed directly from the parking proc to the next
// event's proc — or kept, when the next event is the parking proc's own
// wake-up or belongs to an inline proc, whose step runs on the token
// holder's goroutine — so the driver is only involved when the simulation
// quiesces, stops, hits the horizon, or a proc finishes. Because there is no
// true parallelism, simulated state needs no locking, every run is
// deterministic for a given seed, and failure schedules are exactly
// reproducible.
package simnet

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"

	"splitft/internal/trace"
)

// Sim is a discrete-event simulation instance. Create one with New, add
// nodes and root procs, then call Run. A Sim must only be used from a single
// OS goroutine plus the procs it spawns; it is not safe for concurrent
// external use.
type Sim struct {
	now     time.Duration
	heap    eventHeap // future events, ordered by (at, seq)
	runq    runQueue  // same-instant events, FIFO (== (at, seq) order)
	seq     uint64
	procSeq uint64
	events  uint64 // dispatched events, for perf accounting

	// stale counts the heap's events that will never dispatch (queue.go,
	// retire); droppedAt is the latest time of any stale event compaction
	// removed from the heap.
	stale     int
	droppedAt time.Duration

	// parked is signalled when the execution token returns to the driver:
	// a proc finished, or a parking proc found nothing dispatchable.
	parked chan struct{}

	rng   *rand.Rand
	nodes map[string]*Node
	net   *Net

	// Live (not finished) procs as an intrusive doubly-linked list in spawn
	// order, so shutdown drain tears procs down deterministically.
	procsHead, procsTail *Proc

	// freeWaiters recycles wait-queue records (see proc.go) so blocking
	// primitives allocate nothing in steady state.
	freeWaiters *waiter

	stopped bool
	horizon time.Duration // 0 = run to quiescence
	fatal   error

	// The armed counted cut (cut.go): cutNode crashes immediately before the
	// cutLeft-th next dispatch of one of its procs. nil = unarmed.
	cutNode *Node
	cutLeft int

	// Span tracing. When non-nil, Proc.StartSpan records deterministic
	// spans on the virtual clock; when nil, tracing costs one pointer
	// check per call site.
	tracer   *trace.Collector
	traceRun int
}

// New returns a simulator whose random source is seeded with seed.
// Identical programs with identical seeds produce identical executions.
func New(seed int64) *Sim {
	s := &Sim{
		parked: make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
		nodes:  make(map[string]*Node),
	}
	s.net = newNet(s)
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Events returns the number of events dispatched so far. One event is one
// proc wake-up: a sleep expiring, a yield, a queue hand-off. splitft-bench
// perf divides wall-clock time by this to report ns/event.
func (s *Sim) Events() uint64 { return s.events }

// Rand returns the simulation's deterministic random source. Only use it
// from simulation context (setup code or running procs).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Net returns the simulated network.
func (s *Sim) Net() *Net { return s.net }

// SetTracer attaches a span collector; pass nil to disable tracing. A
// collector may be shared across several Sims (e.g. a bench sweep over many
// clusters); each attachment gets its own run number so exported traces keep
// the runs apart.
func (s *Sim) SetTracer(c *trace.Collector) {
	s.tracer = c
	if c != nil {
		s.traceRun = c.AddRun()
	}
}

// Stop requests that Run return after the currently running proc yields.
func (s *Sim) Stop() { s.stopped = true }

// errKilled is the panic value used to unwind a proc whose node crashed.
type killedPanic struct{}

// Run drives the simulation until no events remain, Stop is called, or the
// horizon set by RunUntil is reached. It returns the first proc panic, if
// any (proc panics abort the simulation and are reported with a stack).
//
// The loop body looks per-event but is not: each dispatch starts a hand-off
// chain in which parking procs dispatch each other directly, and the driver
// regains the token only when the chain cannot continue (quiescence, stop,
// horizon, or a finished proc).
func (s *Sim) Run() error {
	defer s.drain()
	for {
		ev, ok := s.nextLive()
		if !ok {
			// The next event lies past the horizon, even a stale one that
			// compaction dropped: the clock moves to the horizon exactly as
			// when stale events stayed queued.
			if !s.stopped && s.fatal == nil && s.horizon > 0 && (s.pending() || s.droppedAt > s.horizon) {
				s.now = s.horizon
			}
			break
		}
		if !s.dispatch(ev, nil) {
			<-s.parked
		}
	}
	return s.fatal
}

// RunUntil drives the simulation like Run but stops once virtual time would
// pass t. Events at exactly t still execute.
func (s *Sim) RunUntil(t time.Duration) error {
	s.horizon = t
	defer func() { s.horizon = 0 }()
	return s.Run()
}

// drain unwinds every remaining proc goroutine so a finished Sim leaks
// nothing. Procs are woken in spawn order with the killed flag set and panic
// out through their recover wrapper (which unlinks them from the list), so
// teardown order is deterministic. An inline proc has no goroutine to
// unwind: it is unlinked in its turn.
func (s *Sim) drain() {
	for s.procsHead != nil {
		p := s.procsHead
		p.killed = true
		if p.step != nil {
			s.unlink(p)
			continue
		}
		p.wake <- struct{}{}
		<-s.parked
	}
}

// LiveProcs counts the live procs, goroutine and inline alike, whose name
// begins with prefix: a census a leak check bounds.
func (s *Sim) LiveProcs(prefix string) int {
	n := 0
	for p := s.procsHead; p != nil; p = p.nextAll {
		if strings.HasPrefix(p.name, prefix) {
			n++
		}
	}
	return n
}

// addProc / removeProc maintain the sim-wide intrusive proc list.
func (s *Sim) addProc(p *Proc) {
	p.prevAll = s.procsTail
	if s.procsTail != nil {
		s.procsTail.nextAll = p
	} else {
		s.procsHead = p
	}
	s.procsTail = p
}

func (s *Sim) removeProc(p *Proc) {
	if p.prevAll != nil {
		p.prevAll.nextAll = p.nextAll
	} else {
		s.procsHead = p.nextAll
	}
	if p.nextAll != nil {
		p.nextAll.prevAll = p.prevAll
	} else {
		s.procsTail = p.prevAll
	}
	p.prevAll, p.nextAll = nil, nil
}

// unlink ends p: it leaves the sim's and its node's proc lists and every
// event still queued for it is stale.
func (s *Sim) unlink(p *Proc) {
	p.done = true
	if p.queued > 0 {
		s.retire(p)
	}
	if p.node != nil {
		p.node.removeProc(p)
	}
	s.removeProc(p)
}

// newProc links a proc into the sim's and n's proc lists and schedules its
// first wake-up at the current virtual time.
func (s *Sim) newProc(n *Node, name string, step func(*Proc) bool) *Proc {
	s.procSeq++
	p := &Proc{sim: s, node: n, name: name, id: s.procSeq, step: step}
	s.addProc(p)
	if n != nil {
		n.addProc(p)
	}
	s.schedule(s.now, p, 0)
	return p
}

// spawn creates a proc goroutine parked at its start and schedules its first
// wake-up at the current virtual time.
func (s *Sim) spawn(n *Node, name string, fn func(*Proc)) *Proc {
	p := s.newProc(n, name, nil)
	p.wake = make(chan struct{}, 1)
	go func() {
		<-p.wake
		p.nextGen()
		defer func() {
			s.unlink(p)
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					s.procPanicked(p, r)
				}
			}
			s.parked <- struct{}{}
		}()
		if p.killed {
			panic(killedPanic{})
		}
		fn(p)
	}()
	return p
}

// procPanicked records p's panic as Run's error, unless one came first.
func (s *Sim) procPanicked(p *Proc, r any) {
	if s.fatal == nil {
		s.fatal = fmt.Errorf("simnet: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
	}
}

// step runs one dispatch of inline proc p on the caller's goroutine. A
// killed p is unlinked without stepping again; a step that panics ends p
// and the panic becomes Run's error; a step that reports done ends p, as a
// goroutine proc ends by returning.
func (s *Sim) step(p *Proc) {
	p.nextGen()
	if p.killed {
		s.unlink(p)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.unlink(p)
			s.procPanicked(p, r)
		}
	}()
	if p.step(p) {
		s.unlink(p)
	}
}

// Go starts a detached root proc (bound to no node; it survives node
// crashes). Use Node.Go for procs that should die with their machine.
func (s *Sim) Go(name string, fn func(*Proc)) *Proc {
	return s.spawn(nil, name, fn)
}
