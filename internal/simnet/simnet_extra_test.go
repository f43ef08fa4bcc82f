package simnet

import (
	"fmt"
	"testing"
	"time"
)

// Additional simnet coverage: non-blocking primitives, teardown semantics,
// latency overrides, and scheduling edge cases.

func TestTryRecvAndClose(t *testing.T) {
	s := New(1)
	ch := NewChan[int](s)
	s.Go("t", func(p *Proc) {
		if _, ok := ch.TryRecv(p); ok {
			t.Error("TryRecv on empty chan succeeded")
		}
		ch.SendAfter(p, 1, time.Millisecond)
		if _, ok := ch.TryRecv(p); ok {
			t.Error("TryRecv returned an in-flight message early")
		}
		p.Sleep(2 * time.Millisecond)
		if v, ok := ch.TryRecv(p); !ok || v != 1 {
			t.Errorf("TryRecv after delivery = %v %v", v, ok)
		}
		ch.Close(p)
		ch.Send(p, 9) // dropped silently
		if _, ok := ch.Recv(p); ok {
			t.Error("recv on closed empty chan returned a value")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseWakesBlockedReceiver(t *testing.T) {
	s := New(1)
	ch := NewChan[int](s)
	woke := false
	s.Go("recv", func(p *Proc) {
		_, ok := ch.Recv(p)
		woke = true
		if ok {
			t.Error("closed chan delivered a value")
		}
	})
	s.Go("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Close(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("receiver never woke after close")
	}
}

func TestLatencyOverridePerPair(t *testing.T) {
	s := New(1)
	a := s.NewNode("a")
	b := s.NewNode("b")
	c := s.NewNode("c")
	s.Net().SetDefaultLatency(10 * time.Microsecond)
	s.Net().SetLatency(a, b, time.Millisecond)
	if got := s.Net().Latency(a, b); got != time.Millisecond {
		t.Fatalf("a-b latency = %v", got)
	}
	if got := s.Net().Latency(b, a); got != time.Millisecond {
		t.Fatalf("latency not symmetric: %v", got)
	}
	if got := s.Net().Latency(a, c); got != 10*time.Microsecond {
		t.Fatalf("default latency = %v", got)
	}
	if got := s.Net().Latency(a, a); got != 0 {
		t.Fatalf("self latency = %v", got)
	}
}

func TestReachability(t *testing.T) {
	s := New(1)
	a := s.NewNode("a")
	b := s.NewNode("b")
	if !s.Net().Reachable(a, b) {
		t.Fatal("fresh nodes unreachable")
	}
	s.Net().Partition(a, b)
	if s.Net().Reachable(a, b) || s.Net().Reachable(b, a) {
		t.Fatal("partitioned nodes reachable")
	}
	s.Net().Heal(a, b)
	b.Crash()
	if s.Net().Reachable(a, b) {
		t.Fatal("dead node reachable")
	}
}

func TestSemaphoreFIFOUnderContention(t *testing.T) {
	s := New(1)
	sem := NewSemaphore(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Go(fmt.Sprint(i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			sem.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			sem.Release(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("order = %v", order)
	}
}

func TestCrashResetsCPUQueue(t *testing.T) {
	s := New(1)
	n := s.NewNode("n")
	n.SetCores(1)
	resumed := false
	s.Go("driver", func(p *Proc) {
		n.Go("hog", func(hp *Proc) { n.CPU().Use(hp, time.Hour) })
		p.Sleep(time.Millisecond)
		n.Crash()
		p.Sleep(time.Millisecond)
		n.Restart()
		n.Go("after", func(ap *Proc) {
			n.CPU().Use(ap, time.Millisecond)
			resumed = true
		})
	})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("CPU queue not reset by crash: post-restart work never ran")
	}
}

func TestYieldInterleavesSameInstant(t *testing.T) {
	s := New(1)
	var log []string
	s.Go("a", func(p *Proc) {
		log = append(log, "a1")
		p.Yield()
		log = append(log, "a2")
	})
	s.Go("b", func(p *Proc) {
		log = append(log, "b1")
		p.Yield()
		log = append(log, "b2")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log) != "[a1 b1 a2 b2]" {
		t.Fatalf("interleaving = %v", log)
	}
}

func TestStopFromProcHaltsPromptly(t *testing.T) {
	s := New(1)
	ticks := 0
	s.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	s.Go("stopper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks > 6 {
		t.Fatalf("sim kept running after Stop: %d ticks", ticks)
	}
}

func TestRPCConcurrentHandlers(t *testing.T) {
	// Handlers run as independent procs: a slow request must not block a
	// fast one behind it.
	s := New(1)
	srv := s.NewNode("srv")
	cli := s.NewNode("cli")
	s.Net().Register("svc", srv, func(p *Proc, req Msg) (Msg, error) {
		if req.S[0] == "slow" {
			p.Sleep(50 * time.Millisecond)
		}
		return req, nil
	})
	var fastDone, slowDone time.Duration
	s.Go("slow", func(p *Proc) {
		s.Net().Call(p, cli, "svc", Msg{S: [3]string{"slow"}}) //nolint:errcheck
		slowDone = p.Now()
	})
	s.Go("fast", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Net().Call(p, cli, "svc", Msg{S: [3]string{"fast"}}) //nolint:errcheck
		fastDone = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fastDone >= slowDone {
		t.Fatalf("fast rpc (%v) queued behind slow one (%v)", fastDone, slowDone)
	}
}
