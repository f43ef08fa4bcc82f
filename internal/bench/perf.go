package bench

import (
	"fmt"
	"runtime"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// perf is the simulator wall-clock performance suite behind
// `splitft-bench perf`. It mirrors the internal/simnet testing.B benchmarks
// (event churn, yield and chan ping-pong, mutex convoy, RPC echo) and adds a
// 12-client YCSB-A slice on the full SplitFT stack, reporting events
// dispatched (virtual: a pure function of the seed), wall-clock time,
// ns/event, events/sec and heap allocations per event (host). The host
// numbers depend on the machine — only allocs_per_event is gated, loosely —
// but BENCH_simnet.json keeps the trajectory visible in CI artifacts, and
// the allocation columns should stay near zero for the pure scheduler rows.
func perf(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: fmt.Sprintf("Simulator performance (%s %s/%s, %d CPUs, profile %s)",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), sc.profile().Name)}
	ysc := perfScale(sc)
	for _, w := range []struct {
		name string
		run  func() (*simnet.Sim, error)
	}{
		{"event-churn", func() (*simnet.Sim, error) { return perfEventChurn(seed) }},
		{"event-churn-fanout", func() (*simnet.Sim, error) { return perfEventChurnFanout(seed) }},
		{"yield-pingpong", func() (*simnet.Sim, error) { return perfYieldPingPong(seed) }},
		{"chan-pingpong", func() (*simnet.Sim, error) { return perfChanPingPong(seed) }},
		{"mutex-convoy", func() (*simnet.Sim, error) { return perfMutexConvoy(seed) }},
		{"rpc-echo", func() (*simnet.Sim, error) { return perfRPCEcho(seed) }},
		{"ycsb-a-12c", func() (*simnet.Sim, error) { return perfYCSBSlice(ysc, seed) }},
		{"scale-64c-4s", func() (*simnet.Sim, error) { return perfScaleSmoke(sc, seed) }},
	} {
		if err := measure(&rep, w.name, w.run); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// measure runs one workload — it builds and runs a simulation, returned
// only for its event counter — with the allocation counters bracketing the
// whole run (construction included: it is amortised over millions of events
// and hiding it would overstate the steady state).
func measure(rep *Report, name string, run func() (*simnet.Sim, error)) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s, err := run()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	events, allocs := float64(s.Events()), float64(m1.Mallocs-m0.Mallocs)
	rep.add(name, "events", events, "count")
	rep.host(name, "wall_ns", float64(wall.Nanoseconds()), "ns")
	rep.host(name, "ns_per_event", float64(wall.Nanoseconds())/events, "ns")
	rep.host(name, "events_per_sec", events/wall.Seconds(), "1/s")
	rep.host(name, "allocs", allocs, "count")
	rep.host(name, "allocs_per_event", allocs/events, "count")
	return nil
}

// Suite sizes: large enough that per-event costs dominate setup, small
// enough that the whole suite stays under ~10s of wall clock.
const (
	perfChurnEvents = 2_000_000
	perfFanoutProcs = 64
	perfFanoutPer   = 16_384
	perfYields      = 1_000_000
	perfChanRounds  = 300_000
	perfMutexProcs  = 8
	perfMutexRounds = 50_000
	perfRPCCalls    = 100_000
	perfYCSBClients = 12
)

// perfScale shrinks the caller's scale to a slice-sized YCSB run while
// keeping its hardware profile and tracing settings.
func perfScale(sc Scale) Scale {
	out := sc
	if out.LoadKeys > 30000 || out.LoadKeys == 0 {
		out.LoadKeys = 30000
	}
	if out.RunDur > 250*time.Millisecond || out.RunDur == 0 {
		out.RunDur = 250 * time.Millisecond
	}
	if out.Warmup > 100*time.Millisecond || out.Warmup == 0 {
		out.Warmup = 100 * time.Millisecond
	}
	out.Clients = perfYCSBClients
	return out
}

func perfEventChurn(seed int64) (*simnet.Sim, error) {
	s := simnet.New(seed)
	s.Go("churn", func(p *simnet.Proc) {
		for i := 0; i < perfChurnEvents; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	return s, s.Run()
}

func perfEventChurnFanout(seed int64) (*simnet.Sim, error) {
	s := simnet.New(seed)
	for i := 0; i < perfFanoutProcs; i++ {
		s.Go(fmt.Sprintf("churn%d", i), func(p *simnet.Proc) {
			p.Sleep(time.Duration(i) * time.Nanosecond)
			for j := 0; j < perfFanoutPer; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	return s, s.Run()
}

func perfYieldPingPong(seed int64) (*simnet.Sim, error) {
	s := simnet.New(seed)
	for i := 0; i < 2; i++ {
		s.Go(fmt.Sprintf("y%d", i), func(p *simnet.Proc) {
			for j := 0; j < perfYields/2; j++ {
				p.Yield()
			}
		})
	}
	return s, s.Run()
}

func perfChanPingPong(seed int64) (*simnet.Sim, error) {
	s := simnet.New(seed)
	ping := simnet.NewChan[int](s)
	pong := simnet.NewChan[int](s)
	s.Go("ping", func(p *simnet.Proc) {
		for i := 0; i < perfChanRounds; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	s.Go("pong", func(p *simnet.Proc) {
		for i := 0; i < perfChanRounds; i++ {
			ping.Recv(p)
			pong.Send(p, i)
		}
	})
	return s, s.Run()
}

func perfMutexConvoy(seed int64) (*simnet.Sim, error) {
	s := simnet.New(seed)
	var mu simnet.Mutex
	for i := 0; i < perfMutexProcs; i++ {
		s.Go(fmt.Sprintf("m%d", i), func(p *simnet.Proc) {
			for j := 0; j < perfMutexRounds; j++ {
				mu.Lock(p)
				p.Yield()
				mu.Unlock(p)
			}
		})
	}
	return s, s.Run()
}

func perfRPCEcho(seed int64) (*simnet.Sim, error) {
	s := simnet.New(seed)
	srv := s.NewNode("srv")
	cli := s.NewNode("cli")
	s.Net().Register("echo", srv, func(p *simnet.Proc, req simnet.Msg) (simnet.Msg, error) { return req, nil })
	var callErr error
	s.Go("caller", func(p *simnet.Proc) {
		for i := 0; i < perfRPCCalls; i++ {
			if _, err := s.Net().Call(p, cli, "echo", simnet.Msg{U: [4]uint64{uint64(i)}}); err != nil {
				callErr = err
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		return s, err
	}
	return s, callErr
}

// perfScaleSmoke is the control-plane row: the CI-sized scale point (64
// open-loop clients on a 4-shard controller, see scale.go). It exercises the
// multi-group Raft endpoint, the sharded znode tree and the pooled NCL
// allocation path, which the YCSB row's single-app cluster barely touches.
func perfScaleSmoke(sc Scale, seed int64) (*simnet.Sim, error) {
	cfg := smokeScaleConfig()
	var rep Report
	return runScalePoint(&rep, cfg, sc, seed, cfg.Shards[0], cfg.Clients[0])
}

// perfYCSBSlice is the end-to-end row: the full SplitFT stack (controllers,
// peers, dfs, kvstore) under 12 closed-loop YCSB-A clients for a short
// measured window. It exercises every layer the other rows skip.
func perfYCSBSlice(sc Scale, seed int64) (*simnet.Sim, error) {
	_, s, err := ycsbRun{kvPort, CfgSplitFT, "kv", sc.LoadKeys, ycsb.WorkloadA, sc.Clients}.run(sc, seed)
	return s, err
}
