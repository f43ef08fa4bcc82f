package bench

import (
	"fmt"
	"time"

	"splitft/internal/apps/kvstore"
	"splitft/internal/apps/litedb"
	"splitft/internal/apps/redstore"
	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/metrics"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/ycsb"
)

// ---- Fig 11(b): application recovery time ----

// fig11b measures how long each application takes to recover a log of
// sc.LogSizeMB from NCL peers (SplitFT), from the dfs (DFT — weak and
// strong recover identically), and from a local ext4 disk (unrealistic
// comparison point, as in the paper). SplitFT cells also carry the NCL
// phase breakdown (Fig 11b's stacking), queried from the "ncl"/"recover.*"
// trace spans of the recovering open; parse is the application-level read +
// parse + rebuild that remains.
func fig11b(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: fmt.Sprintf("Fig 11(b). Recovery time for a %dMB log", sc.LogSizeMB)}
	for _, appName := range []string{"kvstore", "redstore", "litedb"} {
		for _, variant := range []string{"SplitFT", "DFT", "local ext4"} {
			if err := recoverOnce(&rep, sc, seed, appName, variant); err != nil {
				return rep, fmt.Errorf("fig11b %s/%s: %w", appName, variant, err)
			}
		}
	}
	return rep, nil
}

// recoverOnce builds a log of the target size, crashes the app, and times
// recovery into rep's appName/variant cell. The NCL phase breakdown is a
// span query over the recovery window.
func recoverOnce(rep *Report, sc Scale, seed int64, appName, variant string) error {
	cell := appName + "/" + variant
	if sc.Trace == nil {
		sc.Trace = trace.New() // breakdown needs spans even without -trace
	}
	col := sc.Trace
	c := newCluster(sc, seed)
	logBytes := int64(sc.LogSizeMB) << 20

	// Map the variant to a configuration + backing store.
	cfg := CfgSplitFT
	if variant != "SplitFT" {
		cfg = CfgStrong // DFT recovers from the dfs regardless of weak/strong
	}
	return c.Run(func(p *simnet.Proc) error {
		fsOpts := func(fencing int64) core.Options {
			o := c.FSOptions(appName, fencing)
			if variant == "local ext4" {
				o.DFS = c.LocalFS
			}
			return o
		}
		// Writer: fill the log to the target size, then park.
		written := make(chan struct{}, 1)
		c.AppNode.Go("app-v1", func(wp *simnet.Proc) {
			fs, err := core.NewFS(wp, fsOpts(0))
			if err != nil {
				return
			}
			if err := fillLog(wp, c, fs, appName, cfg, logBytes); err != nil {
				return
			}
			written <- struct{}{}
			wp.Sleep(24 * time.Hour)
		})
		// Wait for the fill to finish (poll the signal).
		for len(written) == 0 {
			p.Sleep(100 * time.Millisecond)
		}
		c.CrashApp()
		p.Sleep(10 * time.Millisecond)
		c.RestartApp()

		fs2, err := core.NewFS(p, fsOpts(1))
		if err != nil {
			return err
		}
		mark := col.Len()
		start := p.Now()
		if err := recoverApp(p, c, fs2, appName, cfg); err != nil {
			return err
		}
		total := p.Now() - start
		spans := col.Since(mark)
		rep.dur(cell, "total", total)
		rep.dur(cell, "parse", total-trace.Sum(spans, "ncl", "recover."))
		if variant == "SplitFT" {
			for _, phase := range []string{"getpeer", "connect", "rdmaread", "syncpeer"} {
				rep.dur(cell, phase, trace.Sum(spans, "ncl", "recover."+phase))
			}
		}
		return nil
	})
}

// fillLog writes application data until the active log reaches target
// bytes, with settings that prevent rotation/checkpointing first.
func fillLog(p *simnet.Proc, c *harness.Cluster, fs *core.FS, appName, cfg string, target int64) error {
	val := make([]byte, ycsb.ValueSize)
	switch appName {
	case "kvstore":
		dbCfg := kvConfig(c, cfg)
		dbCfg.MemtableBytes = target * 2 // never rotate
		dbCfg.WALRegion = target + target/4
		db, err := kvstore.Open(p, fs, dbCfg)
		if err != nil {
			return err
		}
		for i := int64(0); db.WAL().Size() < target; i++ {
			if err := db.Put(p, ycsb.Key(i), val); err != nil {
				return err
			}
		}
	case "redstore":
		sCfg := redConfig(c, cfg)
		sCfg.AOFRewriteBytes = target * 2
		sCfg.AOFRegion = target + target/4
		st, err := redstore.Open(p, fs, sCfg)
		if err != nil {
			return err
		}
		for i := int64(0); st.AOFSize() < target; i++ {
			if err := st.Set(p, ycsb.Key(i%500000), val); err != nil {
				return err
			}
		}
	case "litedb":
		dbCfg := liteConfig(c, cfg)
		dbCfg.WALBytes = target + target/8 // one generation fills the target
		dbCfg.NPages = int(target / 4096 * 2)
		db, err := litedb.Open(p, fs, dbCfg)
		if err != nil {
			return err
		}
		frames := target / (4096 + 24)
		for i := int64(0); i < frames; i++ {
			if err := db.Set(p, ycsb.Key(i), val); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("bench: unknown app %q", appName)
	}
	return nil
}

// recoverApp runs the application's recovery path.
func recoverApp(p *simnet.Proc, c *harness.Cluster, fs *core.FS, appName, cfg string) error {
	switch appName {
	case "kvstore":
		dbCfg := kvConfig(c, cfg)
		dbCfg.MemtableBytes = 1 << 40 // recovery only; avoid rotation
		dbCfg.WALRegion = 64 << 20    // fresh active WAL after replay
		_, err := kvstore.Recover(p, fs, dbCfg)
		return err
	case "redstore":
		sCfg := redConfig(c, cfg)
		sCfg.AOFRegion = 64 << 20
		_, err := redstore.Recover(p, fs, sCfg)
		return err
	case "litedb":
		dbCfg := liteConfig(c, cfg)
		dbCfg.WALBytes = 64 << 20
		dbCfg.NPages = 1 << 15
		_, err := litedb.Recover(p, fs, dbCfg)
		return err
	}
	return fmt.Errorf("bench: unknown app %q", appName)
}

// ---- Table 3: peer replacement latency breakdown ----

// table3 opens a log, fills it to sc.LogSizeMB, crashes one member peer and
// reports the replacement's steps, queried from the "ncl"/"replace.*" trace
// spans: the controller peer query, region setup + MR registration + QP
// connect, the bulk transfer from the writer's local buffer, and the
// ap-map CAS.
func table3(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Table 3. Peer recovery latency breakdown"}
	if sc.Trace == nil {
		sc.Trace = trace.New()
	}
	col := sc.Trace
	c := newCluster(sc, seed)
	logBytes := int64(sc.LogSizeMB) << 20
	err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "table3", 0)
		if err != nil {
			return err
		}
		nf, err := fs.OpenFile(p, "biglog", core.O_NCL|core.O_CREATE, logBytes+1024)
		if err != nil {
			return err
		}
		chunk := make([]byte, 256<<10)
		for off := int64(0); off < logBytes; off += int64(len(chunk)) {
			if _, err := nf.Write(p, chunk); err != nil {
				return err
			}
		}
		lg := nf.(hasLog).Log()
		victim := lg.LivePeers()[0]
		mark := col.Len()
		c.Sim.Node(victim).Crash()
		// Trigger detection and wait for the replacement.
		for lg.Replacements == 0 {
			if _, err := nf.Write(p, []byte("tick")); err != nil {
				return err
			}
			p.Sleep(5 * time.Millisecond)
		}
		spans := col.Since(mark)
		var total time.Duration
		for _, step := range []string{"getpeer", "connect", "catchup", "apmap"} {
			d := trace.Sum(spans, "ncl", "replace."+step)
			rep.dur(step, "time", d)
			total += d
		}
		rep.dur("total", "time", total)
		return nil
	})
	return rep, err
}

// ---- Fig 1(a)-(c): IO size distributions ----

// fig1 traces durable write sizes for each application under a
// strong-mode write-only workload, classifying the "core"/"write.*" spans
// by file name into log vs background writes (the paper's Fig 1a-c): the
// sample counts per app, then the quantiles of both size distributions.
func fig1(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Fig 1: durable write sizes, log vs background"}
	for _, appName := range sc.Apps {
		if err := fig1App(&rep, appName, sc, seed); err != nil {
			return rep, fmt.Errorf("fig1 %s: %w", appName, err)
		}
	}
	return rep, nil
}

func fig1App(rep *Report, appName string, sc Scale, seed int64) error {
	var logCDF, bgCDF metrics.SizeCDF
	if sc.Trace == nil {
		sc.Trace = trace.New()
	}
	col := sc.Trace
	c := newCluster(sc, seed)
	err := c.Run(func(p *simnet.Proc) error {
		keys := appLoadKeys(appName, sc) / 2
		a, err := newApp(c, p, appName, CfgStrong, keys)
		if err != nil {
			return err
		}
		// Mark after load so only workload IO is counted.
		if err := a.load(p, keys); err != nil {
			return err
		}
		mark := col.Len()
		startServer(c, "app", a)
		clients := sc.Clients
		if appName == "litedb" {
			clients = 1
		}
		runWorkload(c, p, "app", writeOnly, keys, clients, sc, nil)
		for _, sp := range trace.Filter(col.Since(mark), "core", "write.") {
			n := sp.IntAttr("bytes")
			if n == 0 {
				continue // clean dfs sync: nothing hit storage
			}
			if isLogPath(sp.StrAttr("path")) {
				logCDF.Add(n)
			} else {
				bgCDF.Add(n)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.add(appName, "log_writes", float64(logCDF.Count()), "count")
	rep.add(appName, "bg_writes", float64(bgCDF.Count()), "count")
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		cell := fmt.Sprintf("%s/p%02.0f", appName, q*100)
		rep.add(cell, "log_write", float64(logCDF.Quantile(q)), "bytes")
		rep.add(cell, "bg_write", float64(bgCDF.Quantile(q)), "bytes")
	}
	return nil
}

// isLogPath classifies traced paths into the log class (Table 2's second
// column) vs the background class.
func isLogPath(path string) bool {
	for _, suffix := range []string{".log", ".aof", "-wal"} {
		if len(path) >= len(suffix) && path[len(path)-len(suffix):] == suffix {
			return true
		}
	}
	return false
}
