package simnet

import (
	"testing"
	"time"
)

// A cut at k lets exactly k of the node's dispatches through, whichever of
// its procs they wake and however long each sleeps, and kills every proc of
// the node; the proc of another node is neither counted nor touched.
func TestRunCutCrashesBeforeTheKthDispatch(t *testing.T) {
	for k := 0; k < 7; k++ {
		s := New(1)
		n, other := s.NewNode("victim"), s.NewNode("bystander")
		woken, elsewhere := 0, 0
		n.Go("neighbour", func(p *Proc) { // a second proc of the victim: its wake-ups count too
			for {
				p.Sleep(3 * time.Microsecond)
				woken++
			}
		})
		other.Go("busy", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(time.Microsecond)
				elsewhere++
			}
		})
		s.Go("script", func(p *Proc) {
			p.Sleep(time.Microsecond)
			before := woken
			completed := n.RunCut(p, k, func(cp *Proc) {
				for {
					cp.Sleep(2 * time.Microsecond)
					woken++
				}
			})
			if completed || n.Alive() || woken-before != k {
				t.Errorf("k=%d: completed %v, alive %v, %d dispatches got through", k, completed, n.Alive(), woken-before)
			}
			if s.cutNode != nil {
				t.Errorf("k=%d: still armed after the crash", k)
			}
		})
		run(t, s)
		if elsewhere != 100 || !other.Alive() {
			t.Errorf("k=%d: the bystander ran %d of 100 steps", k, elsewhere)
		}
	}
}

// An operation that ends before its cut completes, disarmed: the node lives
// on and later dispatches are not counted against anything.
func TestRunCutCompletesAndDisarms(t *testing.T) {
	s := New(1)
	n := s.NewNode("victim")
	s.Go("script", func(p *Proc) {
		if !n.RunCut(p, 3, func(cp *Proc) { cp.Sleep(time.Microsecond); cp.Yield() }) {
			t.Error("two dispatches under a cut at 3 did not complete")
		}
		done := false
		n.Go("later", func(lp *Proc) {
			for i := 0; i < 10; i++ {
				lp.Yield()
			}
			done = true
		})
		p.Sleep(time.Millisecond)
		if !done || !n.Alive() || s.cutNode != nil {
			t.Errorf("after a completed cut: later proc done %v, alive %v, armed %v", done, n.Alive(), s.cutNode != nil)
		}
	})
	run(t, s)
}

// The ladder cuts every dispatch of a short window once, and a long one at
// every point of its dense part and then ever more sparsely, the same way for
// the same seed.
func TestCutLadderEnumeratesTheWindow(t *testing.T) {
	climb := func(window, dense int, seed int64) (ks []int) {
		CutLadder(t.Logf, seed, dense, func(k int) bool {
			ks = append(ks, k)
			return k >= window
		})
		return ks
	}
	if ks := climb(10, 64, 1); len(ks) != 11 || ks[10] != 10 {
		t.Errorf("a window of 10 was cut at %v", ks)
	}
	a, b := climb(5000, 64, 1), climb(5000, 64, 1)
	if len(a) != len(b) || len(a) < 64+20 || len(a) > 64+100 {
		t.Errorf("a window of 5000 was cut %d and %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i <= 64 && a[i] != i) || (i > 0 && a[i] <= a[i-1]) {
			t.Fatalf("cut %d at %d (second climb %d): want 0..64 one by one, then increasing, the same both times", i, a[i], b[i])
		}
	}
	if c := climb(5000, 64, 2); len(c) == len(a) && c[len(c)-2] == a[len(a)-2] {
		t.Errorf("seeds 1 and 2 strode alike")
	}
}
