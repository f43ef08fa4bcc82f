package simnet

import "math/rand"

// Counted cuts: a crash placed by counting the victim's dispatches instead of
// by sleeping a tuned number of microseconds. The simulation is deterministic,
// so "the node dies immediately before the k-th time one of its procs is
// dispatched" names one exact point of an execution, every point of a window
// is reached by k = 0, 1, 2, …, and none of them moves when a latency constant
// does. While no cut is armed the scheduler pays one nil check per dispatch:
// no allocation, no event added, dropped or reordered.

// RunCut runs fn in a fresh proc on n with a cut armed: counting from the
// moment fn starts, n crashes immediately before the k-th (from 0) dispatch of
// any of its procs — at k = 0 the first time fn blocks, nothing else on the
// node having run. It blocks p until fn has returned, which disarms the cut
// and reports true, or the crash has unwound it (false; the node is down — it
// is up only if fn left through runtime.Goexit, a t.Fatalf). At most one cut
// is armed per Sim.
func (n *Node) RunCut(p *Proc, k int, fn func(*Proc)) (completed bool) {
	done := NewChan[struct{}](n.sim)
	n.Go("cut", func(cp *Proc) {
		defer done.Send(cp, struct{}{}) // runs when the crash unwinds cp, too
		n.sim.cutNode, n.sim.cutLeft = n, k
		fn(cp)
		n.sim.cutNode = nil
		completed = true
	})
	done.Recv(p)
	return completed
}

// countCut is dispatch's slow path: one of the armed node's procs is about to
// run. The crash kills every proc of the node, the one being dispatched
// included — it wakes only to unwind.
func (s *Sim) countCut() {
	if s.cutLeft > 0 {
		s.cutLeft--
		return
	}
	s.cutNode.Crash() // disarms
}

// CutLadder climbs the crash points of one window. attempt(k) runs the
// operation under test through RunCut(…, k, …) — setting up before it and
// checking what the crash left behind after it — and returns RunCut's result;
// the ladder calls it for k = 0, 1, 2, … until the operation completes
// un-crashed, so every point of the window is cut whatever the cost model
// says it takes. The first dense points are climbed one by one — a suite asks
// for as many as it can pay for; past them k advances by a stride drawn from
// seed, uniform in [1, 1 + k/4], so a window of thousands of dispatches is
// cut a few hundred times, at points no constant chose. How many cuts crashed
// the operation, and the window's size, it says through logf.
func CutLadder(logf func(format string, args ...any), seed int64, dense int, attempt func(k int) (completed bool)) {
	rng := rand.New(rand.NewSource(seed))
	k, cuts := 0, 0
	for ; !attempt(k); cuts++ {
		if k++; k > dense {
			k += rng.Intn(1 + k/4)
		}
	}
	if k <= dense {
		logf("cut ladder: %d crash points, every dispatch of a window of %d", cuts, k)
	} else {
		logf("cut ladder: %d crash points in a window of at most %d dispatches, every one of the first %d, then a stride seeded %d",
			cuts, k, dense, seed)
	}
}
