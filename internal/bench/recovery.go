package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"splitft/internal/apps"
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
// comparison point, as in the paper). Every cell's parse is the
// "app"/"readlog" spans — the read-and-parse of the surviving logs, which
// overlap on every backend. SplitFT cells also carry the NCL phase breakdown
// (Fig 11b's stacking), queried from the "ncl"/"recover.*" trace spans of the
// recovering open — getpeer and connect precede the parse, rdmaread and
// syncpeer run behind it — and open, the "ncl"/"open" of the next active log
// inside the recovery window.
func fig11b(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: fmt.Sprintf("Fig 11(b). Recovery time for a %dMB log", sc.LogSizeMB)}
	for _, port := range sc.Apps {
		for _, variant := range []string{"SplitFT", "DFT", "local ext4"} {
			if err := recoverOnce(&rep, sc, seed, port, variant); err != nil {
				return rep, fmt.Errorf("fig11b %s/%s: %w", port.Name, variant, err)
			}
		}
	}
	return rep, nil
}

// recoverOnce builds a log of the target size, crashes the app, and times
// recovery into rep's port/variant cell. The NCL phase breakdown is a span
// query over the recovery window.
func recoverOnce(rep *Report, sc Scale, seed int64, port apps.Port, variant string) error {
	cell := port.Name + "/" + variant
	if sc.Trace == nil {
		sc.Trace = trace.New() // breakdown needs spans even without -trace
	}
	col := sc.Trace
	c := newCluster(rep, sc, seed)
	logBytes := int64(sc.LogSizeMB) << 20

	// Map the variant to a configuration + backing store.
	cfg := CfgSplitFT
	if variant != "SplitFT" {
		cfg = CfgStrong // DFT recovers from the dfs regardless of weak/strong
	}
	return c.Run(func(p *simnet.Proc) error {
		fsOpts := func(fencing int64) core.Options {
			o := c.FSOptions(port.Name, fencing)
			if variant == "local ext4" {
				o.DFS = c.LocalFS
			}
			return o
		}
		// Fill the log to the target size; the app crashes the moment the
		// fill returns.
		fs, err := core.NewFS(p, fsOpts(0))
		if err != nil {
			return err
		}
		if err := fillLog(p, c, fs, port, cfg, logBytes); err != nil {
			return err
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
		// A fresh active log after replay, and no reclaim during it.
		if _, err := port.Recover(p, fs2, c.Profile.Apps, durabilityOf[cfg],
			apps.Sizing{LogBytes: 1 << 40, Region: 64 << 20, Pages: 1 << 15}); err != nil {
			return err
		}
		spans := col.Since(mark)
		rep.dur(cell, "total", p.Now()-start)
		rep.dur(cell, "parse", trace.Sum(spans, "app", "readlog"))
		if variant == "SplitFT" {
			for _, phase := range []string{"getpeer", "connect", "rdmaread", "syncpeer"} {
				rep.dur(cell, phase, trace.Sum(spans, "ncl", "recover."+phase))
			}
			rep.dur(cell, "open", trace.Sum(spans, "ncl", "open"))
		}
		return nil
	})
}

// fillLog writes application data until the active log reaches target
// bytes, with settings that prevent rotation/checkpointing first.
func fillLog(p *simnet.Proc, c *harness.Cluster, fs *core.FS, port apps.Port, cfg string, target int64) error {
	sz := apps.Sizing{LogBytes: target * 2, Region: target + target/4}
	if port.Name == "litedb" {
		// The one port whose log is circular: its region is exactly what
		// recovery copies back, so it gets less headroom, and the fill is a
		// whole number of page frames in one WAL generation.
		sz = apps.Sizing{Region: target + target/8, Pages: int(target / 4096 * 2)}
		target -= target % (4096 + 24)
	}
	st, err := port.Open(p, fs, c.Profile.Apps, durabilityOf[cfg], sz)
	if err != nil {
		return err
	}
	val := make([]byte, ycsb.ValueSize)
	for i := int64(0); st.Log().Size() < target; i++ {
		if err := st.Put(p, ycsb.Key(i), val); err != nil {
			return err
		}
	}
	return nil
}

// ---- Table 3: peer replacement latency breakdown ----

// table3 opens a log, fills it to sc.LogSizeMB, crashes a member peer and
// reports the replacement's steps, queried from the "ncl"/"replace.*" trace
// spans: the controller peer query, region setup + MR registration + QP
// connect, the bulk transfer from the writer's local buffer, and the
// ap-map CAS. Twice: "time" is the paper's case, a replacement that has
// pinned nothing — every peer outside the group is restarted right before the
// victim dies — and "warm" the common one (§5.4.3), a second member lost a
// second later, when the restarted peers have pinned all they lend.
func table3(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Table 3. Peer recovery latency breakdown"}
	if sc.Trace == nil {
		sc.Trace = trace.New()
	}
	col := sc.Trace
	c := newCluster(&rep, sc, seed)
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
		// replace crashes a member and reports the replacement's steps.
		replace := func(metric string) error {
			before, mark := lg.Replacements, col.Len()
			c.Sim.Node(lg.LivePeers()[0]).Crash()
			// Trigger detection and wait for the replacement.
			for lg.Replacements == before {
				if _, err := nf.Write(p, []byte("tick")); err != nil {
					return err
				}
				p.Sleep(5 * time.Millisecond)
			}
			spans := col.Since(mark)
			var total time.Duration
			for _, step := range []string{"getpeer", "connect", "catchup", "apmap"} {
				d := trace.Sum(spans, "ncl", "replace."+step)
				rep.dur(step, metric, d)
				total += d
			}
			rep.dur("total", metric, total)
			return nil
		}
		var spares simnet.WaitGroup
		var restartErr error
		for _, n := range c.PeerNodes {
			if slices.Contains(lg.LivePeers(), n.Name()) {
				continue
			}
			n.Crash()
			spares.Add(1)
			p.Go("restart-"+n.Name(), func(rp *simnet.Proc) {
				defer spares.Done(rp)
				if err := c.RestartPeer(rp, n.Name()); err != nil {
					restartErr = err
				}
			})
		}
		if spares.Wait(p); restartErr != nil {
			return restartErr
		}
		if err := replace("time"); err != nil {
			return err
		}
		p.Sleep(time.Second)
		return replace("warm")
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
	for _, port := range sc.Apps {
		if err := fig1App(&rep, port, sc, seed); err != nil {
			return rep, fmt.Errorf("fig1 %s: %w", port.Name, err)
		}
	}
	return rep, nil
}

func fig1App(rep *Report, port apps.Port, sc Scale, seed int64) error {
	var logCDF, bgCDF metrics.SizeCDF
	if sc.Trace == nil {
		sc.Trace = trace.New()
	}
	col := sc.Trace
	c := newCluster(rep, sc, seed)
	err := c.Run(func(p *simnet.Proc) error {
		keys := loadKeys(port, sc) / 2
		a, err := newApp(c, p, port, CfgStrong, keys)
		if err != nil {
			return err
		}
		// Mark after load so only workload IO is counted.
		if err := a.load(p, keys); err != nil {
			return err
		}
		mark := col.Len()
		startServer(c, "app", a)
		runWorkload(c, p, "app", writeOnly, keys, connsFor(port, sc.Clients), sc, nil)
		for _, sp := range trace.Filter(col.Since(mark), "core", "write.") {
			n := sp.IntAttr("bytes")
			if n == 0 {
				continue // clean dfs sync: nothing hit storage
			}
			// The port's log class (Table 2's second column) vs background.
			if strings.HasSuffix(sp.StrAttr("path"), port.LogSuffix) {
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
	rep.add(port.Name, "log_writes", float64(logCDF.Count()), "count")
	rep.add(port.Name, "bg_writes", float64(bgCDF.Count()), "count")
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		cell := fmt.Sprintf("%s/p%02.0f", port.Name, q*100)
		rep.add(cell, "log_write", float64(logCDF.Quantile(q)), "bytes")
		rep.add(cell, "bg_write", float64(bgCDF.Quantile(q)), "bytes")
	}
	return nil
}
