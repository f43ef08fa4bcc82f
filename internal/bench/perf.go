package bench

import (
	"fmt"
	"runtime"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// perf is the simulator wall-clock performance suite behind
// `splitft-bench perf`. It runs the scheduler micro-workloads of
// internal/simnet (simnet.Workloads: event churn, yield and chan ping-pong,
// mutex convoy, RPC echo) at fixed sizes and adds a 12-client YCSB-A slice on
// the full SplitFT stack and the CI-sized control-plane scale point,
// reporting events dispatched (virtual: a pure function of the seed),
// wall-clock time, ns/event, events/sec and heap allocations per event
// (host). The host numbers depend on the machine — only allocs_per_event is
// gated, loosely — but BENCH_simnet.json keeps the trajectory visible in CI
// artifacts, and the allocation columns should stay near zero for the pure
// scheduler rows.
func perf(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: fmt.Sprintf("Simulator performance (%s %s/%s, %d CPUs, profile %s)",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), sc.profile().Name)}
	for _, w := range simnet.Workloads {
		err := measure(&rep, w.Name, func(sub *Report) error {
			s := simnet.New(seed)
			sub.track(s)
			w.Spawn(s, perfSizes[w.Name])
			return s.Run()
		})
		if err != nil {
			return rep, err
		}
	}
	// The end-to-end row: the full SplitFT stack (controllers, peers, dfs,
	// kvstore) under 12 closed-loop YCSB-A clients for a short measured
	// window. It exercises every layer the scheduler rows skip.
	ysc := perfScale(sc)
	err := measure(&rep, "ycsb-a-12c", func(sub *Report) error {
		_, err := ycsbRun{kvPort, CfgSplitFT, "kv", ysc.LoadKeys, ycsb.WorkloadA, ysc.Clients}.run(sub, ysc, seed)
		return err
	})
	if err != nil {
		return rep, err
	}
	// The control-plane row: the CI-sized scale point (64 open-loop clients,
	// see scale.go). It exercises sessions, keep-alives and the pooled NCL
	// allocation path, which the YCSB row's single-app cluster barely
	// touches.
	cfg := smokeScaleConfig()
	return rep, measure(&rep, "scale-64c", func(sub *Report) error {
		return runScalePoint(sub, cfg, sc, seed, cfg.Clients[0])
	})
}

// measure runs one workload into a report of its own — its rows are
// dropped, its simulations are what is counted — with the allocation
// counters bracketing the whole run (construction included: it is amortised
// over millions of events and hiding it would overstate the steady state).
func measure(rep *Report, name string, run func(sub *Report) error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	var sub Report
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := run(&sub)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rep.count(&sub)
	events, allocs := float64(sub.simEvents()), float64(m1.Mallocs-m0.Mallocs)
	rep.add(name, "events", events, "count")
	rep.host(name, "wall_ns", float64(wall.Nanoseconds()), "ns")
	rep.host(name, "ns_per_event", float64(wall.Nanoseconds())/events, "ns")
	rep.host(name, "events_per_sec", events/wall.Seconds(), "1/s")
	rep.host(name, "allocs", allocs, "count")
	rep.host(name, "allocs_per_event", allocs/events, "count")
	return nil
}

// perfSizes is the suite's n per scheduler workload: large enough that
// per-event costs dominate setup, small enough that the whole suite stays
// under ~10s of wall clock.
var perfSizes = map[string]int{
	"event-churn": 2_000_000, "event-churn-fanout": 64 * 16_384, "yield-pingpong": 1_000_000,
	"chan-pingpong": 300_000, "mutex-convoy": 8 * 50_000, "rpc-echo": 100_000,
}

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
	out.Clients = 12
	return out
}
