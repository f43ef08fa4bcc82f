package bench

import (
	"fmt"
	"time"

	"splitft/internal/apps/kvstore"
	"splitft/internal/apps/litedb"
	"splitft/internal/apps/redstore"
	"splitft/internal/harness"
	"splitft/internal/metrics"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// ---- Application adapters ----

// ycsbApp adapts one ported store to the YCSB driver. The three ports
// differ only in their get/put calls and in how they are loaded.
type ycsbApp struct {
	name string
	get  func(p *simnet.Proc, key string) ([]byte, bool, error)
	put  func(p *simnet.Proc, key string, val []byte) error
	load func(p *simnet.Proc, keys int64) error
}

func (a *ycsbApp) do(p *simnet.Proc, op ycsb.Op, val []byte) error {
	switch op.Type {
	case ycsb.Read:
		_, _, err := a.get(p, op.Key)
		return err
	case ycsb.ReadModifyWrite:
		if _, _, err := a.get(p, op.Key); err != nil {
			return err
		}
		return a.put(p, op.Key, val)
	default:
		return a.put(p, op.Key, val)
	}
}

// durability maps a configuration under comparison onto one port's
// Durability constants.
func durability[D any](cfg string, weak, strong, splitft D) D {
	switch cfg {
	case CfgWeak:
		return weak
	case CfgStrong:
		return strong
	default:
		return splitft
	}
}

// kvConfig, redConfig and liteConfig are the ports' default configurations
// under the cluster's cost profile and the given durability configuration.
func kvConfig(c *harness.Cluster, cfg string) kvstore.Config {
	dbCfg := kvstore.DefaultConfig()
	dbCfg.KVStoreCosts = c.Profile.Apps.KVStore
	dbCfg.Durability = durability(cfg, kvstore.Weak, kvstore.Strong, kvstore.SplitFT)
	return dbCfg
}

func redConfig(c *harness.Cluster, cfg string) redstore.Config {
	sCfg := redstore.DefaultConfig()
	sCfg.RedStoreCosts = c.Profile.Apps.RedStore
	sCfg.Durability = durability(cfg, redstore.Weak, redstore.Strong, redstore.SplitFT)
	return sCfg
}

func liteConfig(c *harness.Cluster, cfg string) litedb.Config {
	dbCfg := litedb.DefaultConfig()
	dbCfg.LiteDBCosts = c.Profile.Apps.LiteDB
	dbCfg.Durability = durability(cfg, litedb.Weak, litedb.Strong, litedb.SplitFT)
	return dbCfg
}

// openKV opens the RocksDB-like store. keys > 0 sizes it for that dataset.
func openKV(c *harness.Cluster, p *simnet.Proc, cfg string, keys int64) (*kvstore.DB, error) {
	fs, err := c.NewFS(p, "kvapp", 0)
	if err != nil {
		return nil, err
	}
	dbCfg := kvConfig(c, cfg)
	if keys > 0 {
		// Keep the memtable well below the dataset so reads exercise the
		// sstable + cache path, as at the paper's 100M-row scale.
		mt := datasetBytes(keys) / 8
		if mt < 1<<20 {
			mt = 1 << 20
		}
		if mt > 16<<20 {
			mt = 16 << 20
		}
		dbCfg.MemtableBytes = mt
		dbCfg.WALRegion = 2*mt + 1<<20
	}
	return kvstore.Open(p, fs, dbCfg)
}

// kvApp adapts an open kvstore, loaded by 16 parallel loaders on the
// application node (the paper's load phase).
func kvApp(c *harness.Cluster, db *kvstore.DB) *ycsbApp {
	return &ycsbApp{name: "kvstore", get: db.Get, put: db.Put, load: func(p *simnet.Proc, keys int64) error {
		return parallelLoad(c.AppNode, p, keys, 16, db.Put)
	}}
}

// openRed opens and adapts the Redis-like store, loaded like kvstore.
func openRed(c *harness.Cluster, p *simnet.Proc, cfg string, keys int64) (*ycsbApp, error) {
	fs, err := c.NewFS(p, "redapp", 0)
	if err != nil {
		return nil, err
	}
	sCfg := redConfig(c, cfg)
	if keys > 0 {
		// Scale the AOF-rewrite trigger with the dataset so background
		// snapshots occur at simulation scale, as they would at 100M rows.
		rw := datasetBytes(keys) / 4
		if rw < 256<<10 {
			rw = 256 << 10
		}
		if rw > 8<<20 {
			rw = 8 << 20
		}
		sCfg.AOFRewriteBytes = rw
		sCfg.AOFRegion = 2*rw + 1<<20
	}
	st, err := redstore.Open(p, fs, sCfg)
	if err != nil {
		return nil, err
	}
	return &ycsbApp{name: "redstore", get: st.Get, put: st.Set, load: func(p *simnet.Proc, keys int64) error {
		return parallelLoad(c.AppNode, p, keys, 16, st.Set)
	}}, nil
}

// openLite opens and adapts the SQLite-like store: a single connection in
// exclusive mode, so the load is sequential.
func openLite(c *harness.Cluster, p *simnet.Proc, cfg string, keys int64) (*ycsbApp, error) {
	fs, err := c.NewFS(p, "liteapp", 0)
	if err != nil {
		return nil, err
	}
	dbCfg := liteConfig(c, cfg)
	// Size the page table for ~2KB average occupancy per 4KB page.
	dbCfg.NPages = int(keys*int64(ycsb.KeySize+ycsb.ValueSize+4)/2048 + 64)
	db, err := litedb.Open(p, fs, dbCfg)
	if err != nil {
		return nil, err
	}
	return &ycsbApp{name: "litedb", get: db.Get, put: db.Set, load: func(p *simnet.Proc, keys int64) error {
		val := make([]byte, ycsb.ValueSize)
		for i := int64(0); i < keys; i++ {
			if err := db.Set(p, ycsb.Key(i), val); err != nil {
				return err
			}
		}
		return nil
	}}, nil
}

// newApp opens and adapts a store by name, sized for keys rows.
func newApp(c *harness.Cluster, p *simnet.Proc, name, cfg string, keys int64) (*ycsbApp, error) {
	switch name {
	case "kvstore":
		db, err := openKV(c, p, cfg, keys)
		if err != nil {
			return nil, err
		}
		return kvApp(c, db), nil
	case "redstore":
		return openRed(c, p, cfg, keys)
	case "litedb":
		return openLite(c, p, cfg, keys)
	default:
		return nil, fmt.Errorf("bench: unknown app %q", name)
	}
}

// appLoadKeys scales the row count per application (litedb is page-based
// and slower to load, as in the paper's 10M-vs-100M split).
func appLoadKeys(name string, sc Scale) int64 {
	if name == "litedb" {
		return sc.LoadKeys / 4
	}
	return sc.LoadKeys
}

// ycsbRun is one closed-loop YCSB measurement: a fresh cluster with its
// cache sized for the dataset, the named store opened under cfg and loaded
// with keys rows, then served at addr to `clients` client threads.
type ycsbRun struct {
	app, cfg, addr string
	keys           int64
	spec           ycsb.Spec
	clients        int
}

// run returns the measured point and the simulation it ran on (the perf
// suite reads its event counter).
func (r ycsbRun) run(sc Scale, seed int64) (*point, *simnet.Sim, error) {
	c := newClusterSized(sc, seed, datasetBytes(r.keys))
	var pt *point
	err := c.Run(func(p *simnet.Proc) error {
		a, err := newApp(c, p, r.app, r.cfg, r.keys)
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
	return pt, c.Sim, err
}

// ---- Fig 9: latency vs throughput, write-only ----

// fig9 sweeps client counts for each application in all three configs.
// litedb is measured single-threaded (as in the paper).
func fig9(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Fig 9: latency vs throughput, write-only"}
	for _, appName := range sc.Apps {
		clientCounts := []int{1, 2, 4, 8, 12, 20, 32}
		if appName == "litedb" {
			clientCounts = []int{1}
		}
		for _, cfg := range AllConfigs {
			for _, nc := range clientCounts {
				cell := fmt.Sprintf("%s/%s/%dc", appName, cfg, nc)
				pt, _, err := ycsbRun{appName, cfg, "app", appLoadKeys(appName, sc) / 2, writeOnly, nc}.run(sc, seed)
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
	for _, appName := range sc.Apps {
		clients := 20
		if appName == "litedb" {
			clients = 1
		}
		for _, cfg := range AllConfigs {
			for _, w := range []string{"a", "b", "c", "d", "f"} {
				pt, _, err := ycsbRun{appName, cfg, "app", appLoadKeys(appName, sc), ycsb.Workloads[w], clients}.run(sc, seed)
				if err != nil {
					return rep, fmt.Errorf("fig10 %s/%s/%s: %w", appName, cfg, w, err)
				}
				rep.add(appName+"/"+cfg, w, pt.kops(), "KOps/s")
			}
		}
	}
	return rep, nil
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
	c := newCluster(sc, seed)
	sampler := metrics.NewThroughputSampler(10 * time.Millisecond)
	total := sc.Warmup + sc.RunDur*3
	err := c.Run(func(p *simnet.Proc) error {
		keys := sc.LoadKeys / 4
		// Default (4 MiB) memtable: the dataset is update-heavy and small,
		// and the figure is about peer failures, not compaction stalls.
		db, err := openKV(c, p, CfgSplitFT, 0)
		if err != nil {
			return err
		}
		a := kvApp(c, db)
		if err := a.load(p, keys); err != nil {
			return err
		}
		startServer(c, "kv", a)

		// Injector: crash 2 current WAL peers at 40% of the run, 1 at 75%.
		p.Go("injector", func(ip *simnet.Proc) {
			start := ip.Now()
			walPeers := func() []string {
				if hl, ok := db.WAL().(hasLog); ok {
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
