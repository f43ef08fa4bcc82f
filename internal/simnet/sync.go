package simnet

import "time"

// Mutex is a simulated mutual-exclusion lock with FIFO handoff: Unlock
// passes ownership directly to the longest-waiting live proc, so lock
// acquisition order is deterministic. Because only one proc runs at a time
// there are no data races; the Mutex models *logical* exclusion (e.g. a
// store's single-writer critical section).
//
// A Mutex must not be shared across nodes: node crashes kill the lock
// holder without unlocking, which is only meaningful when every waiter dies
// with it.
type Mutex struct {
	held bool
	q    waitQ
}

// Lock acquires m, blocking p until it is available.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	w := p.newWaiter()
	m.q.push(w)
	p.park()
	p.releaseWaiter(w)
	// Ownership was handed to us by Unlock; m.held is still true.
}

// Unlock releases m, handing it to the next live waiter if any.
func (m *Mutex) Unlock(p *Proc) {
	if !m.held {
		panic("simnet: unlock of unlocked Mutex")
	}
	if w := m.q.popLive(p.sim); w != nil {
		// Direct handoff: the lock stays held and w's proc resumes as owner.
		wakeWaiter(p.sim, w, p.sim.now)
		return
	}
	m.held = false
}

// Cond is a simulated condition variable associated with a Mutex.
type Cond struct {
	L *Mutex
	q waitQ
}

// NewCond returns a condition variable using lock l.
func NewCond(l *Mutex) *Cond { return &Cond{L: l} }

// Wait atomically releases c.L and suspends p until Signal or Broadcast
// wakes it, then reacquires c.L. As with sync.Cond, callers must re-check
// their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	w := p.newWaiter()
	c.q.push(w)
	c.L.Unlock(p)
	defer c.relockOnKill(p)
	p.park()
	p.releaseWaiter(w)
	c.L.Lock(p)
}

// relockOnKill restores the caller's lock ownership when a node crash
// kills the proc mid-wait. The kill panic from park unwinds through the
// caller, whose deferred Unlock expects to own c.L — without this it dies
// on "unlock of unlocked Mutex" and masks the crash. Handing the dead proc
// the lock is sound: a Mutex is node-local, so every other user dies with
// the same crash.
func (c *Cond) relockOnKill(p *Proc) {
	if p.killed {
		c.L.held = true
	}
}

// WaitTimeout is Wait with a deadline. It reports whether the wait timed
// out (as opposed to being signalled). The lock is reacquired either way.
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) (timedOut bool) {
	w := p.newWaiter()
	c.q.push(w)
	c.L.Unlock(p)
	defer c.relockOnKill(p)
	p.sim.schedule(p.sim.now+d, p, p.gen)
	p.park()
	timedOut = w.state == wWaiting // nobody claimed the record: timer fired first
	p.releaseWaiter(w)
	c.L.Lock(p)
	return timedOut
}

// Signal wakes one waiting proc, if any.
func (c *Cond) Signal(p *Proc) {
	if w := c.q.popLive(p.sim); w != nil {
		w.state = wCancelled // claim
		wakeWaiter(p.sim, w, p.sim.now)
	}
}

// Broadcast wakes every waiting proc.
func (c *Cond) Broadcast(p *Proc) {
	for {
		w := c.q.popLive(p.sim)
		if w == nil {
			return
		}
		w.state = wCancelled
		wakeWaiter(p.sim, w, p.sim.now)
	}
}

// WaitGroup mirrors sync.WaitGroup on the virtual clock.
type WaitGroup struct {
	n int
	q waitQ
}

// Add adds delta to the counter.
func (g *WaitGroup) Add(delta int) {
	g.n += delta
	if g.n < 0 {
		panic("simnet: negative WaitGroup counter")
	}
}

// Done decrements the counter, waking waiters when it reaches zero.
func (g *WaitGroup) Done(p *Proc) {
	g.n--
	if g.n < 0 {
		panic("simnet: negative WaitGroup counter")
	}
	if g.n == 0 {
		for {
			w := g.q.popLive(p.sim)
			if w == nil {
				return
			}
			w.state = wCancelled
			wakeWaiter(p.sim, w, p.sim.now)
		}
	}
}

// Wait blocks p until the counter reaches zero.
func (g *WaitGroup) Wait(p *Proc) {
	for g.n > 0 {
		w := p.newWaiter()
		g.q.push(w)
		p.park()
		p.releaseWaiter(w)
	}
}

// Semaphore is a counting semaphore with FIFO wake-up.
type Semaphore struct {
	avail int
	q     waitQ
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{avail: n} }

// Acquire takes one permit, blocking until available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail == 0 {
		w := p.newWaiter()
		s.q.push(w)
		p.park()
		p.releaseWaiter(w)
	}
	s.avail--
}

// Release returns one permit and wakes a waiter if any.
func (s *Semaphore) Release(p *Proc) {
	s.avail++
	if w := s.q.popLive(p.sim); w != nil {
		w.state = wCancelled
		wakeWaiter(p.sim, w, p.sim.now)
	}
}
