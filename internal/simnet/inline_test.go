package simnet

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// Tests for inline procs (Node.GoInline): a proc without a goroutine whose
// dispatches run its step on the token holder's goroutine. Each pins one
// part of the contract that they are ordinary procs in every way the
// simulation can observe.

// runScript runs one worker script beside two goroutine procs and logs every
// point each of them reaches: the worker sleeps through a fixed list of
// delays, then waits to be kicked, four rounds over. As a goroutine proc it
// sleeps with Sleep and waits on a Chan; as an inline proc it sleeps with
// WakeAfter and is woken, when idle, by the kicker's WakeAfter(0) — which
// consumes a scheduling sequence number exactly when the Chan's Send finds
// its waiter.
func runScript(t *testing.T, inline bool) (log []string, events uint64, end time.Duration) {
	t.Helper()
	s := New(1)
	n := s.NewNode("n")
	note := func(p *Proc, what string) { log = append(log, fmt.Sprint(p.Now(), " ", p.Name(), " ", what)) }
	sleeps := []time.Duration{3 * time.Microsecond, 0, 5 * time.Microsecond}
	const rounds = 4
	var kick func(p *Proc)
	if inline {
		round, i, kicks, waiting, idle := 0, 0, 0, false, false
		w := n.GoInline("worker", func(p *Proc) bool {
			for {
				switch {
				case round == rounds:
					note(p, "end")
					return true
				case i < len(sleeps):
					note(p, "sleep")
					p.WakeAfter(sleeps[i])
					i++
					return false
				case !waiting:
					note(p, "wait")
					waiting = true
				case kicks == 0:
					idle = true
					return false
				default:
					kicks, waiting, i = kicks-1, false, 0
					round++
				}
			}
		})
		kick = func(p *Proc) {
			kicks++
			if idle {
				idle = false
				w.WakeAfter(0)
			}
		}
	} else {
		ch := NewChan[struct{}](s)
		n.Go("worker", func(p *Proc) {
			for round := 0; round < rounds; round++ {
				for _, d := range sleeps {
					note(p, "sleep")
					p.Sleep(d)
				}
				note(p, "wait")
				ch.Recv(p)
			}
			note(p, "end")
		})
		kick = func(p *Proc) { ch.Send(p, struct{}{}) }
	}
	s.Go("ticker", func(p *Proc) {
		for i := 0; i < 50; i++ {
			note(p, "tick")
			p.Sleep(time.Microsecond)
		}
	})
	n.Go("kicker", func(p *Proc) {
		// The first three kicks find the worker asleep or reach it at the
		// instant it starts to wait; the last finds it idle.
		for _, at := range []time.Duration{4, 8, 12, 40} {
			p.Sleep(at*time.Microsecond - p.Now())
			note(p, "kick")
			kick(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return log, s.Events(), s.Now()
}

// (a) An inline proc is scheduled exactly as the goroutine proc running the
// same script: the same points reached in the same order at the same
// instants, and the same number of dispatched events.
func TestInlineProcMatchesGoroutineProc(t *testing.T) {
	glog, gev, gend := runScript(t, false)
	ilog, iev, iend := runScript(t, true)
	if !slices.Equal(glog, ilog) {
		t.Fatalf("dispatch logs differ:\ngoroutine: %v\ninline:    %v", glog, ilog)
	}
	if gev != iev || gend != iend {
		t.Fatalf("goroutine proc: %d events ending at %v; inline proc: %d events ending at %v", gev, gend, iev, iend)
	}
	if !slices.Contains(ilog, "40µs worker end") {
		t.Fatalf("the worker never finished its rounds: %v", ilog)
	}
}

// (b) A node crash kills an inline proc whether it is idle or asleep: it
// never steps again, a later WakeAfter does nothing, and it leaves the sim's
// and the node's proc lists.
func TestCrashUnlinksInlineProc(t *testing.T) {
	for _, asleep := range []bool{false, true} {
		s := New(1)
		n := s.NewNode("n")
		steps := 0
		w := n.GoInline("inline", func(p *Proc) bool {
			steps++
			if asleep {
				p.WakeAfter(time.Millisecond)
			}
			return false
		})
		s.Go("driver", func(p *Proc) {
			p.Sleep(10 * time.Microsecond)
			n.Crash()
			w.WakeAfter(0)
			p.Sleep(time.Second)
		})
		run(t, s)
		if steps != 1 || s.LiveProcs("inline") != 0 || n.procsHead != nil {
			t.Fatalf("asleep=%v: %d steps (want 1), %d live inline procs, node list empty %v",
				asleep, steps, s.LiveProcs("inline"), n.procsHead == nil)
		}
	}
}

// (c) A counted cut counts an inline proc's dispatches like any other: at
// every k the node crashes immediately before the k-th dispatch after the
// cut is armed, so exactly k steps of the inline proc ran under the cut.
func TestCutCountsInlineDispatches(t *testing.T) {
	for k := 0; k < 5; k++ {
		s := New(1)
		n := s.NewNode("n")
		steps, armedAt := 0, -1
		n.GoInline("stepper", func(p *Proc) bool {
			steps++
			p.WakeAfter(10 * time.Microsecond)
			return false
		})
		s.Go("driver", func(p *Proc) {
			p.Sleep(5 * time.Microsecond)
			n.RunCut(p, k, func(cp *Proc) {
				armedAt = steps
				cp.Sleep(time.Millisecond) // the stepper's dispatches are all the cut counts
			})
		})
		run(t, s)
		if n.Alive() || steps-armedAt != k {
			t.Fatalf("k=%d: node alive %v, %d inline steps ran under the cut", k, n.Alive(), steps-armedAt)
		}
	}
}

// (d) Shutdown drain unlinks idle and sleeping inline procs beside the
// goroutine procs it unwinds, leaving nothing in any proc list.
func TestDrainUnlinksInlineProcs(t *testing.T) {
	s := New(1)
	n := s.NewNode("n")
	n.GoInline("idle", func(p *Proc) bool { return false })
	n.GoInline("sleeper", func(p *Proc) bool { p.WakeAfter(time.Hour); return false })
	n.Go("goroutine", func(p *Proc) { p.Sleep(time.Hour) })
	if err := s.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.LiveProcs("") != 0 || s.procsHead != nil || n.procsHead != nil {
		t.Fatalf("drain left %d procs linked", s.LiveProcs(""))
	}
}

// (e, f) A step that panics, or that blocks, ends the run with an error that
// names the proc; so does WakeAfter on a goroutine proc.
func TestInlineProcMisuseFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		spawn      func(s *Sim, n *Node)
	}{
		{"panic", `proc "bad" panicked: boom`, func(s *Sim, n *Node) {
			n.GoInline("bad", func(p *Proc) bool { panic("boom") })
		}},
		{"sleep", `inline proc "bad" blocked`, func(s *Sim, n *Node) {
			n.GoInline("bad", func(p *Proc) bool { p.Sleep(time.Microsecond); return false })
		}},
		{"recv", `inline proc "bad" blocked`, func(s *Sim, n *Node) {
			ch := NewChan[int](s)
			n.GoInline("bad", func(p *Proc) bool { ch.Recv(p); return false })
		}},
		{"wake goroutine proc", `WakeAfter on goroutine proc "bad"`, func(s *Sim, n *Node) {
			n.Go("bad", func(p *Proc) { p.WakeAfter(0) })
		}},
	} {
		s := New(1)
		n := s.NewNode("n")
		tc.spawn(s, n)
		s.Go("bystander", func(p *Proc) {
			p.Sleep(time.Second)
			t.Errorf("%s: the run went on past the failed proc", tc.name)
		})
		err := s.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if s.LiveProcs("") != 0 {
			t.Errorf("%s: %d procs left linked", tc.name, s.LiveProcs(""))
		}
	}
}
