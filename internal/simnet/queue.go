package simnet

import "time"

// The scheduler's event storage. Two structures share the work:
//
//   - eventHeap: an inlined 4-ary min-heap of value-typed events ordered by
//     (at, seq), for events in the future. 4-ary beats binary here because
//     sift-down touches a quarter of the levels and the four children share
//     a cache line (an event is 32 bytes).
//   - runQueue: a FIFO ring for events scheduled at the current instant
//     (Yield, zero/negative Sleep, same-instant wake-ups — the dominant
//     event class). FIFO order IS (at, seq) order for these: seq is
//     monotone and virtual time never decreases, so entries are appended
//     already sorted.
//
// Both are slabs: events are values in reused backing arrays, so steady-state
// scheduling allocates nothing.

// event wakes a proc at a virtual time. gen guards against stale wake-ups:
// each time a proc resumes it bumps its generation, so events scheduled for
// an earlier blocking episode are skipped.
type event struct {
	at  time.Duration
	seq uint64
	p   *Proc
	gen uint64
}

// eventLess orders events by (at, seq): virtual time first, scheduling
// order as the deterministic tie-break.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is the future-event priority queue.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(e event) {
	a := append(h.a, e)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(a[i], a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
	h.a = a
}

func (h *eventHeap) peek() event { return h.a[0] }

func (h *eventHeap) pop() event {
	a := h.a
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a[last] = event{} // drop the *Proc so the slab doesn't pin finished procs
	a = a[:last]
	h.a = a
	i := 0
	for {
		first := i<<2 + 1
		if first >= len(a) {
			break
		}
		min := first
		end := first + 4
		if end > len(a) {
			end = len(a)
		}
		for c := first + 1; c < end; c++ {
			if eventLess(a[c], a[min]) {
				min = c
			}
		}
		if !eventLess(a[min], a[i]) {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// runQueue is a power-of-two ring buffer of same-instant events.
type runQueue struct {
	buf  []event
	head int
	n    int
}

func (q *runQueue) len() int { return q.n }

func (q *runQueue) push(e event) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *runQueue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 64
	}
	nb := make([]event, size)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

func (q *runQueue) peek() event { return q.buf[q.head] }

func (q *runQueue) pop() event {
	e := q.buf[q.head]
	q.buf[q.head] = event{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

// pending reports whether any event (of any generation) is queued.
func (s *Sim) pending() bool { return s.runq.n > 0 || len(s.heap.a) > 0 }

// minAt returns the virtual time of the earliest pending event. Call only
// when pending().
func (s *Sim) minAt() time.Duration {
	if s.runq.n == 0 {
		return s.heap.peek().at
	}
	if len(s.heap.a) == 0 {
		return s.runq.peek().at
	}
	if h := s.heap.peek(); eventLess(h, s.runq.peek()) {
		return h.at
	}
	return s.runq.peek().at
}

// popMin removes and returns the globally earliest event by (at, seq),
// merging the run queue and the heap. Call only when pending().
func (s *Sim) popMin() event {
	if s.runq.n == 0 {
		return s.heap.pop()
	}
	if len(s.heap.a) == 0 {
		return s.runq.pop()
	}
	if eventLess(s.heap.peek(), s.runq.peek()) {
		return s.heap.pop()
	}
	return s.runq.pop()
}

// schedule enqueues a wake-up for p at virtual time `at` (clamped to the
// present — the simulation cannot schedule into the past).
func (s *Sim) schedule(at time.Duration, p *Proc, gen uint64) {
	s.seq++
	if at <= s.now {
		s.runq.push(event{at: s.now, seq: s.seq, p: p, gen: gen})
		return
	}
	s.heap.push(event{at: at, seq: s.seq, p: p, gen: gen})
}

// nextLive pops the next dispatchable event in global (at, seq) order,
// discarding stale ones along the way. ok is false when nothing may be
// dispatched right now: the simulation is stopped or failed, the queues are
// empty, or the earliest event lies past the horizon (it stays queued).
func (s *Sim) nextLive() (event, bool) {
	if s.stopped || s.fatal != nil {
		return event{}, false
	}
	for s.pending() {
		if s.horizon > 0 && s.minAt() > s.horizon {
			break
		}
		e := s.popMin()
		if e.p.done || e.gen != e.p.gen {
			continue // stale wake-up
		}
		return e, true
	}
	return event{}, false
}

// dispatch advances the clock to e and transfers the execution token to
// e.p. The caller must immediately yield the token (block on its own wake
// channel or return to the driver loop) — except for the self-continuation
// case, which dispatch reports by returning true without touching any
// channel.
func (s *Sim) dispatch(e event, self *Proc) bool {
	s.now = e.at
	s.events++
	if s.cutNode != nil && e.p.node == s.cutNode {
		s.countCut()
	}
	if e.p == self {
		return true
	}
	e.p.wake <- struct{}{}
	return false
}
