package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"splitft/internal/trace"
)

// Proc is a cooperative task in the simulation. All blocking operations
// (Sleep, channel receives, mutex acquisition, RPC) go through the Proc so
// the scheduler can interleave tasks deterministically on the virtual clock.
//
// A Proc bound to a Node is killed when the node crashes: its next blocking
// call unwinds the goroutine. Procs must therefore not hold external
// resources across blocking calls without a recovery story — exactly the
// discipline crash-safe systems code needs anyway.
//
// An inline proc (Node.GoInline) has no goroutine: each of its dispatches
// runs its step function on whichever goroutine holds the execution token.
// A step may not block; WakeAfter is its only way to sleep.
type Proc struct {
	sim  *Sim
	node *Node
	name string
	id   uint64

	wake chan struct{}
	gen  uint64
	// queued counts p's live events in the sim's heap: scheduled under the
	// current gen. When gen moves on they become the sim's stale count.
	queued int
	// step is an inline proc's dispatch; nil for a goroutine proc. It
	// reports done to end the proc, as a goroutine proc ends by returning.
	step func(*Proc) (done bool)

	killed bool
	done   bool

	// Intrusive list links: prevAll/nextAll chain all live procs of the Sim
	// (drain order), prevNode/nextNode chain the procs of p's node (crash
	// kill order). Both are spawn-ordered and deterministic, unlike the
	// map-based bookkeeping they replaced.
	prevAll, nextAll   *Proc
	prevNode, nextNode *Proc

	// waiter is the wait-queue record for the blocking operation currently
	// in progress, if any. Kill cancels it so queues never hand work to a
	// dead proc.
	waiter *waiter

	// span is the proc's current trace span. Child procs inherit the
	// spawner's span at Go/GoOn time; RPC handler procs adopt the caller's
	// call span so traces nest across nodes.
	span *trace.Span
}

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator this proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Node returns the node this proc runs on, or nil for detached procs.
func (p *Proc) Node() *Node { return p.node }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Rand returns the simulation's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.sim.rng }

// park yields the execution token and blocks until woken. The parking proc
// dispatches the next event itself: if that event is its own wake-up the
// token never moves (no channel operation at all — the dominant case for
// Yield and zero-length sleeps); if it targets another proc the token is
// handed over directly; only when nothing is dispatchable does the driver
// get involved. On resume the proc bumps its generation (invalidating stale
// wake events) and unwinds if it was killed in the meantime. Inline procs'
// steps run right here, on the parking proc's goroutine, until the next
// event belongs to a goroutine proc or nothing is dispatchable; an inline
// proc itself may not park.
func (p *Proc) park() {
	if p.step != nil {
		panic(fmt.Sprintf("simnet: inline proc %q blocked; a step sleeps with WakeAfter", p.name))
	}
	s := p.sim
	for {
		ev, ok := s.nextLive()
		if !ok {
			s.parked <- struct{}{} // quiescent / stopped / horizon: driver decides
			break
		}
		if !s.dispatch(ev, p) {
			break // the token went to ev.p's goroutine
		}
		if ev.p == p {
			p.resume() // self-continuation
			return
		}
	}
	<-p.wake
	p.resume()
}

// resume is the post-wake bookkeeping shared by every way a proc regains
// the token.
func (p *Proc) resume() {
	p.nextGen()
	if p.killed {
		if w := p.waiter; w != nil {
			p.waiter = nil
			p.sim.releaseWaiter(w)
		}
		panic(killedPanic{})
	}
}

// nextGen starts p's next episode: every event still queued for the last one
// is stale.
func (p *Proc) nextGen() {
	p.gen++
	if p.queued > 0 {
		p.sim.retire(p)
	}
}

// Sleep suspends the proc for d of virtual time. Sleep is also how
// simulated code "spends" modelled latency or CPU cost. A negative d is
// clamped to zero: virtual time cannot run backwards, so Sleep(-x) behaves
// exactly like Yield — the proc reschedules at the current instant, after
// everything already queued there.
func (p *Proc) Sleep(d time.Duration) {
	if p.killed {
		panic(killedPanic{})
	}
	if d < 0 {
		d = 0
	}
	// Even a zero-length sleep yields, giving other runnable procs at the
	// same timestamp a chance to interleave.
	p.sim.schedule(p.sim.now+d, p, p.gen)
	p.park()
}

// Yield lets other procs scheduled at the current instant run.
func (p *Proc) Yield() { p.Sleep(0) }

// WakeAfter schedules inline proc p's next dispatch d of virtual time from
// now (a negative d is now). It is how a step sleeps and how other procs
// wake an idle inline proc. A killed or finished proc is not woken: its
// kill already queued the dispatch that unlinks it.
func (p *Proc) WakeAfter(d time.Duration) {
	if p.step == nil {
		panic(fmt.Sprintf("simnet: WakeAfter on goroutine proc %q", p.name))
	}
	if p.done || p.killed {
		return
	}
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now+d, p, p.gen)
}

// Go spawns a proc on the same node as p (or detached if p is detached).
// The child inherits p's current span so its work nests under it.
func (p *Proc) Go(name string, fn func(*Proc)) *Proc {
	c := p.sim.spawn(p.node, name, fn)
	c.span = p.span
	return c
}

// GoOn spawns a proc bound to node n, inheriting p's current span.
func (p *Proc) GoOn(n *Node, name string, fn func(*Proc)) *Proc {
	c := p.sim.spawn(n, name, fn)
	c.span = p.span
	return c
}

// nodeName is the span Node attribution ("" for detached procs).
func (p *Proc) nodeName() string {
	if p.node == nil {
		return ""
	}
	return p.node.name
}

// StartSpan opens a trace span as a child of the proc's current span and
// makes it the new current span. Returns nil when no collector is attached
// to the Sim, so disabled tracing costs one pointer check.
func (p *Proc) StartSpan(layer, op string, attrs ...trace.Attr) *trace.Span {
	t := p.sim.tracer
	if t == nil {
		return nil
	}
	sp := t.Start(p.sim.now, p.sim.traceRun, p.id, layer, op, p.nodeName(), p.span, attrs...)
	p.span = sp
	return sp
}

// EndSpan finishes sp at the current virtual time and restores the proc's
// previous span context. Safe on nil spans, so call sites need no
// tracing-enabled check.
func (p *Proc) EndSpan(sp *trace.Span) {
	if sp == nil {
		return
	}
	p.sim.tracer.End(sp, p.sim.now)
	if p.span == sp {
		p.span = sp.Prev()
	}
}

// StartDetachedSpan opens an async span that is NOT pushed onto the proc's
// span stack: its lifetime may cross procs (e.g. an RDMA work request posted
// here but completed by the NIC engine). It still parents under the current
// span. Finish it with FinishSpan from whichever proc observes completion.
func (p *Proc) StartDetachedSpan(layer, op string, attrs ...trace.Attr) *trace.Span {
	t := p.sim.tracer
	if t == nil {
		return nil
	}
	sp := t.Start(p.sim.now, p.sim.traceRun, p.id, layer, op, p.nodeName(), p.span, attrs...)
	sp.Async = true
	return sp
}

// FinishSpan ends a detached span without touching the span stack. Nil-safe.
func (p *Proc) FinishSpan(sp *trace.Span) {
	if sp == nil {
		return
	}
	p.sim.tracer.End(sp, p.sim.now)
}

// AdoptSpan makes sp the proc's current span. RPC handler procs use it to
// nest their work under the remote caller's span.
func (p *Proc) AdoptSpan(sp *trace.Span) { p.span = sp }

// Tracing reports whether a trace collector is attached. Hot paths use it to
// skip building span attributes (whose vararg slices would otherwise escape)
// when tracing is off.
func (p *Proc) Tracing() bool { return p.sim.tracer != nil }

// kill marks the proc dead and wakes it so its next (or current) park
// unwinds. Safe to call from any simulation context.
func (p *Proc) kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if w := p.waiter; w != nil {
		p.waiter = nil
		p.sim.releaseWaiter(w)
	}
	p.sim.schedule(p.sim.now, p, p.gen)
}

// Waiter states. Wait queues (Mutex, Cond, Chan, CPU) hold *waiter records;
// a record is cancelled when its proc times out of the wait or is killed,
// so wake-ups are never wasted on procs that already left.
const (
	wWaiting = iota
	wCancelled
)

// waiter is one proc's registration in a wait queue. Records are recycled
// through the Sim's freelist; the lifecycle is:
//
//  1. newWaiter allocates (or reuses) a record and makes it p.waiter.
//  2. waitQ.push/pop track queue membership via inQueue.
//  3. When the blocking episode ends, the owner calls Proc.releaseWaiter:
//     a record no queue holds returns to the freelist immediately; one
//     still queued (a timed-out wait, a killed proc) is marked cancelled
//     and freed by whichever queue operation eventually dequeues it.
//
// Only the owning proc reads a record after release, and only before
// releasing it, so reuse can never alias a live wait.
type waiter struct {
	p        *Proc
	state    int
	inQueue  bool
	nextFree *waiter
}

// newWaiter returns a fresh wait record for p and registers it as the
// proc's in-progress blocking operation.
func (p *Proc) newWaiter() *waiter {
	s := p.sim
	w := s.freeWaiters
	if w != nil {
		s.freeWaiters = w.nextFree
		w.nextFree = nil
	} else {
		w = &waiter{}
	}
	w.p = p
	w.state = wWaiting
	w.inQueue = false
	p.waiter = w
	return w
}

// releaseWaiter ends p's blocking episode on w. Read w.state (timed out vs
// claimed) before calling: after release the record may be reused.
func (p *Proc) releaseWaiter(w *waiter) {
	p.waiter = nil
	p.sim.releaseWaiter(w)
}

// releaseWaiter recycles w unless a wait queue still holds it (then the
// dequeue frees it).
func (s *Sim) releaseWaiter(w *waiter) {
	if w.inQueue {
		w.state = wCancelled
		return
	}
	s.freeWaiter(w)
}

func (s *Sim) freeWaiter(w *waiter) {
	w.p = nil
	w.nextFree = s.freeWaiters
	s.freeWaiters = w
}

// waitQ is a FIFO of waiter records with O(1) amortized push/pop and a
// recycled backing array, so steady-state queueing allocates nothing.
type waitQ struct {
	q    []*waiter
	head int
}

func (q *waitQ) empty() bool { return q.head == len(q.q) }

func (q *waitQ) push(w *waiter) {
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	} else if q.head > 32 && 2*q.head >= len(q.q) {
		// Compact so a queue that never fully drains cannot grow without
		// bound behind its own head.
		n := copy(q.q, q.q[q.head:])
		for i := n; i < len(q.q); i++ {
			q.q[i] = nil
		}
		q.q = q.q[:n]
		q.head = 0
	}
	w.inQueue = true
	q.q = append(q.q, w)
}

func (q *waitQ) pop() *waiter {
	w := q.q[q.head]
	q.q[q.head] = nil
	q.head++
	w.inQueue = false
	return w
}

// popLive dequeues until it finds a non-cancelled record, recycling the
// cancelled ones (their owners left long ago). Returns nil when the queue
// is exhausted.
func (q *waitQ) popLive(s *Sim) *waiter {
	for !q.empty() {
		w := q.pop()
		if w.state == wCancelled {
			s.freeWaiter(w)
			continue
		}
		return w
	}
	return nil
}

// wakeWaiter schedules a wake-up for w's proc at virtual time `at`,
// capturing the proc's current generation.
func wakeWaiter(s *Sim, w *waiter, at time.Duration) {
	s.schedule(at, w.p, w.p.gen)
}
