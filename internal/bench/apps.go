package bench

import (
	"fmt"
	"time"

	"splitft/internal/apps"
	"splitft/internal/apps/applog"
	"splitft/internal/harness"
	"splitft/internal/metrics"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// ---- Application adapters ----

// ycsbApp is one opened port (apps.Ports) behind the YCSB driver.
type ycsbApp struct {
	apps.Port
	apps.Store
	node *simnet.Node
}

func (a *ycsbApp) do(p *simnet.Proc, op ycsb.Op, val []byte) error {
	switch op.Type {
	case ycsb.Read:
		_, _, err := a.Get(p, op.Key)
		return err
	case ycsb.ReadModifyWrite:
		if _, _, err := a.Get(p, op.Key); err != nil {
			return err
		}
		return a.Put(p, op.Key, val)
	default:
		return a.Put(p, op.Key, val)
	}
}

// load fills the store with keys rows from 16 parallel loaders on the
// application node (the paper's load phase) — one for a single-connection
// store.
func (a *ycsbApp) load(p *simnet.Proc, keys int64) error {
	return parallelLoad(a.node, p, keys, connsFor(a.Port, 16), a.Put)
}

// durabilityOf maps the configurations under comparison onto applog's.
var durabilityOf = map[string]applog.Durability{
	CfgWeak: applog.Weak, CfgStrong: applog.Strong, CfgSplitFT: applog.SplitFT,
}

// kvPort is the port the kvstore-only experiments run.
var kvPort, _ = apps.Lookup("kvstore")

// newApp opens a port's store under cfg with the cluster's cost profile,
// sized for keys rows (0 keeps the port's defaults).
func newApp(c *harness.Cluster, p *simnet.Proc, port apps.Port, cfg string, keys int64) (*ycsbApp, error) {
	fs, err := c.NewFS(p, port.AppID, 0)
	if err != nil {
		return nil, err
	}
	var sz apps.Sizing
	if keys > 0 {
		sz = port.SizeFor(keys)
	}
	st, err := port.Open(p, fs, c.Profile.Apps, durabilityOf[cfg], sz)
	if err != nil {
		return nil, err
	}
	return &ycsbApp{Port: port, Store: st, node: c.AppNode}, nil
}

// loadKeys scales the row count per port: a single-connection store loads
// sequentially, so it gets a quarter (the paper's 10M-vs-100M split).
func loadKeys(port apps.Port, sc Scale) int64 {
	if port.SingleConn {
		return sc.LoadKeys / 4
	}
	return sc.LoadKeys
}

// connsFor caps the concurrent loaders or closed-loop clients a port is
// driven with: a single-connection store takes one.
func connsFor(port apps.Port, n int) int {
	if port.SingleConn {
		return 1
	}
	return n
}

// ycsbRun is one closed-loop YCSB measurement: a fresh cluster with its
// cache sized for the dataset, the port's store opened under cfg and loaded
// with keys rows, then served at addr to `clients` client threads.
type ycsbRun struct {
	port      apps.Port
	cfg, addr string
	keys      int64
	spec      ycsb.Spec
	clients   int
}

// run returns the measured point.
func (r ycsbRun) run(rep *Report, sc Scale, seed int64) (*point, error) {
	c := newClusterSized(rep, sc, seed, apps.DatasetBytes(r.keys))
	var pt *point
	err := c.Run(func(p *simnet.Proc) error {
		a, err := newApp(c, p, r.port, r.cfg, r.keys)
		if err != nil {
			return err
		}
		if err := a.load(p, r.keys); err != nil {
			return err
		}
		startServer(c, r.addr, a)
		pt = runWorkload(c, p, r.addr, r.spec, r.keys, r.clients, sc, nil)
		return nil
	})
	return pt, err
}

// ---- Fig 9: latency vs throughput, write-only ----

// fig9 sweeps client counts for each application in all three configs.
// A single-connection store (litedb) is measured single-threaded, as in the
// paper.
func fig9(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Fig 9: latency vs throughput, write-only"}
	for _, port := range sc.Apps {
		clientCounts := []int{1, 2, 4, 8, 12, 20, 32}
		if port.SingleConn {
			clientCounts = clientCounts[:1]
		}
		for _, cfg := range AllConfigs {
			for _, nc := range clientCounts {
				cell := fmt.Sprintf("%s/%s/%dc", port.Name, cfg, nc)
				pt, err := ycsbRun{port, cfg, "app", loadKeys(port, sc) / 2, writeOnly, nc}.run(&rep, sc, seed)
				if err != nil {
					return rep, fmt.Errorf("fig9 %s: %w", cell, err)
				}
				rep.add(cell, "kops", pt.kops(), "KOps/s")
				rep.dur(cell, "mean_lat", pt.hist.Mean())
			}
		}
	}
	return rep, nil
}

// ---- Fig 10: YCSB ----

// fig10 runs YCSB A/B/C/D/F for each application in all three configs. Each
// (config, workload) point gets a freshly loaded store so every
// configuration sees identical state — in particular, the read-only
// workload C must measure the same store regardless of log durability.
func fig10(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Fig 10: YCSB throughput"}
	for _, port := range sc.Apps {
		for _, cfg := range AllConfigs {
			for _, w := range []string{"a", "b", "c", "d", "f"} {
				if err := fig10Point(&rep, sc, seed, port, cfg, w); err != nil {
					return rep, err
				}
			}
		}
	}
	return rep, nil
}

// fig10Point measures one (port, config, workload) point into rep.
func fig10Point(rep *Report, sc Scale, seed int64, port apps.Port, cfg, w string) error {
	pt, err := ycsbRun{port, cfg, "app", loadKeys(port, sc), ycsb.Workloads[w], connsFor(port, 20)}.run(rep, sc, seed)
	if err != nil {
		return fmt.Errorf("fig10 %s/%s/%s: %w", port.Name, cfg, w, err)
	}
	rep.add(port.Name+"/"+cfg, w, pt.kops(), "KOps/s")
	return nil
}

// ---- Fig 12: application performance under peer failures ----

// fig12 runs the write-only workload on kvstore/SplitFT, crashes two of the
// WAL's log peers simultaneously mid-run (writes must stall until a
// replacement catches up, ~100ms) and a third one later (no availability
// impact), sampling real-time throughput every 10ms. Each 100ms row
// reports the mean rate and the lowest 10ms sample inside it, so the brief
// stall stays visible; the injected events are the notes.
func fig12(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Fig 12: kvstore/SplitFT throughput under peer failures (10ms samples, 100ms rows)"}
	c := newCluster(&rep, sc, seed)
	sampler := metrics.NewThroughputSampler(10 * time.Millisecond)
	total := sc.Warmup + sc.RunDur*3
	err := c.Run(func(p *simnet.Proc) error {
		keys := sc.LoadKeys / 4
		// Default (4 MiB) memtable: the dataset is update-heavy and small,
		// and the figure is about peer failures, not compaction stalls.
		a, err := newApp(c, p, kvPort, CfgSplitFT, 0)
		if err != nil {
			return err
		}
		if err := a.load(p, keys); err != nil {
			return err
		}
		startServer(c, "kv", a)

		// Injector: crash 2 current WAL peers at 40% of the run, 1 at 75%.
		p.Go("injector", func(ip *simnet.Proc) {
			start := ip.Now()
			walPeers := func() []string {
				if hl, ok := a.Log().(hasLog); ok {
					return hl.Log().LivePeers()
				}
				return nil
			}
			ip.Sleep(total * 4 / 10)
			peers := walPeers()
			if len(peers) >= 2 {
				c.Sim.Node(peers[0]).Crash()
				c.Sim.Node(peers[1]).Crash()
				rep.Notes = append(rep.Notes, fmt.Sprintf("event: %.2fs: peers %s and %s crashed (2 > f)",
					(ip.Now()-start).Seconds(), peers[0], peers[1]))
			}
			ip.Sleep(total * 35 / 100)
			peers = walPeers()
			if len(peers) >= 1 {
				c.Sim.Node(peers[0]).Crash()
				rep.Notes = append(rep.Notes, fmt.Sprintf("event: %.2fs: peer %s crashed (1 <= f)",
					(ip.Now()-start).Seconds(), peers[0]))
			}
		})

		longScale := sc
		longScale.RunDur = total - sc.Warmup
		runWorkload(c, p, "kv", writeOnly, keys, sc.Clients, longScale, sampler)
		return nil
	})
	if err != nil {
		return rep, err
	}
	series := sampler.Series()
	for i := 0; i < len(series); i += 10 {
		sum, min, n := 0.0, series[i].OpsPerSec, 0
		for j := i; j < i+10 && j < len(series); j++ {
			sum += series[j].OpsPerSec
			if series[j].OpsPerSec < min {
				min = series[j].OpsPerSec
			}
			n++
		}
		cell := fmt.Sprintf("%.1fs", series[i].At.Seconds())
		rep.add(cell, "kops", sum/float64(n)/1000, "KOps/s")
		rep.add(cell, "min_kops", min/1000, "KOps/s")
	}
	return rep, nil
}

// hasLog is satisfied by the core file handles that wrap an NCL log.
type hasLog interface{ Log() *ncl.Log }
