package bench

import (
	"fmt"
	"os"
	"time"

	"splitft/internal/harness"
	"splitft/internal/metrics"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// scale is the control-plane scaling experiment behind
// `splitft-bench scale`: N independent applications, each an open-loop
// Poisson client appending to its own replicated WAL and rotating it every
// RotateEvery records, all sharing one controller. Every client holds a
// controller session (keepalives), an ephemeral instance lock, and proposes
// ap-map updates on each rotation, so the controller's Raft commit rate is
// the contended resource. Sweeping the client count across shard counts
// shows where a single Raft group saturates — keepalives and rotations queue
// behind fsync, sessions expire, rotations fail — and how partitioning the
// znode tree across data groups moves the knee.
//
// Unlike the closed-loop YCSB drivers in bench.go, arrivals here are open
// loop (ycsb.Arrivals): an operation's start time is drawn from a Poisson
// process and does not wait for the previous operation, so controller
// queueing delay appears in the latency columns instead of silently
// throttling offered load.

// scaleConfig sizes the sweep.
type scaleConfig struct {
	Clients []int // client counts to sweep
	Shards  []int // controller data-shard counts to compare

	Rate        float64       // per-client offered load, ops/s
	RotateEvery int           // WAL rotation period in records
	LogBytes    int64         // WAL region capacity
	RecordBytes int           // bytes per appended record
	Peers       int           // log-peer pool size
	Window      time.Duration // measured window
	Warmup      time.Duration // settle time between boot and the window
	// BootDeadline bounds each client's boot retries (session + lock + first
	// WAL open). The measured window starts once every client has either
	// booted or given up, so the deadline only stretches runs where the
	// controller is too saturated to admit everyone — which the Booted
	// column then reports.
	BootDeadline time.Duration
}

// defaultScaleConfig is the full sweep (10 .. 1000 clients, 1 vs 8 shards).
// At 1000 clients the control-plane load (ap-map rotations plus session
// keepalives) passes a single group's apply-path capacity, so the 1-shard
// column saturates while the 8-shard column stays flat — the knee the
// experiment exists to show.
func defaultScaleConfig() scaleConfig {
	return scaleConfig{
		Clients:     []int{10, 50, 100, 250, 500, 1000},
		Shards:      []int{1, 8},
		Rate:        20,
		RotateEvery: 16,
		LogBytes:    16 << 10,
		RecordBytes: 128,
		Peers:       16,
		// The window must span several failed-rotation cycles (a rotation
		// against a saturated shard burns the full 3 s propose deadline
		// before the client falls back to appending), or a saturated point
		// collapses to all-errors instead of showing its degraded rate.
		Window:       8 * time.Second,
		Warmup:       time.Second,
		BootDeadline: 30 * time.Second,
	}
}

// smokeScaleConfig is the CI-sized single point (64 clients, 4 shards).
func smokeScaleConfig() scaleConfig {
	return scaleConfig{
		Clients:      []int{64},
		Shards:       []int{4},
		Rate:         20,
		RotateEvery:  32,
		LogBytes:     16 << 10,
		RecordBytes:  128,
		Peers:        8,
		Window:       400 * time.Millisecond,
		Warmup:       200 * time.Millisecond,
		BootDeadline: 10 * time.Second,
	}
}

// scale executes the sweep (the smoke point under Scale.Smoke), one cell
// per (shards, clients) point. Points can take minutes of wall clock at the
// saturated end, so progress goes to stderr as each one lands.
func scale(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: fmt.Sprintf("Control-plane scaling (profile %s, open-loop Poisson clients)", sc.profile().Name)}
	cfg := defaultScaleConfig()
	if sc.Smoke {
		cfg = smokeScaleConfig()
	}
	for _, shards := range cfg.Shards {
		for _, clients := range cfg.Clients {
			t0 := time.Now()
			if err := runScalePoint(&rep, cfg, sc, seed, shards, clients); err != nil {
				return rep, fmt.Errorf("scale %d shards %d clients: %w", shards, clients, err)
			}
			fmt.Fprintf(os.Stderr, "[scale] shards=%d clients=%d done (%.1fs wall)\n", shards, clients, time.Since(t0).Seconds())
		}
	}
	return rep, nil
}

// scaleWindow is the measured interval, published to the client procs once
// every boot attempt has resolved.
type scaleWindow struct {
	warmEnd, end time.Duration
}

// scaleClient is one client's accumulators. The simulation scheduler is
// cooperative, so clients update their own slot without locking and the main
// proc merges after they exit.
type scaleClient struct {
	booted  bool
	offered int64
	done    int64
	errs    int64
	hist    metrics.Histogram
}

// runScalePoint measures one (shards, clients) point into rep. booted counts
// clients that completed boot before the deadline — only their operations
// contribute to the other columns; errs counts operations that failed in
// the window: rotations or appends that lost to session expiry, ap-map
// update timeouts, or a full region after repeated rotation failures.
func runScalePoint(rep *Report, cfg scaleConfig, sc Scale, seed int64, shards, clients int) error {
	prof := *sc.profile()
	// The pooled-controller configuration under test: sharded znode tree,
	// TTL-cached peer registry with rendezvous placement, coalesced peer
	// memory publishing. Shards <= 1 keeps the paper's single-group layout
	// as the baseline curve.
	prof.Controller.Shards = shards
	prof.NCL.PoolRefresh = 10 * time.Second
	prof.Peer.PublishInterval = 100 * time.Millisecond

	c := newTestbed(rep, sc, harness.Options{Seed: seed, NumPeers: cfg.Peers, PeerMem: 1 << 30, Profile: &prof})
	nodes := make([]*simnet.Node, clients)
	for i := range nodes {
		nodes[i] = c.Sim.NewNode(fmt.Sprintf("scale%04d", i))
	}

	res := make([]*scaleClient, clients)
	for i := range res {
		res[i] = &scaleClient{}
	}
	var win *scaleWindow

	err := c.Run(func(p *simnet.Proc) error {
		var bootWG, startWG, doneWG simnet.WaitGroup
		bootWG.Add(clients)
		startWG.Add(1)
		doneWG.Add(clients)
		for i := 0; i < clients; i++ {
			p.GoOn(nodes[i], fmt.Sprintf("scale-client%d", i), func(cp *simnet.Proc) {
				defer doneWG.Done(cp)
				runScaleClient(cp, c, cfg, res[i], &win, &bootWG, &startWG, i)
			})
		}
		bootWG.Wait(p)
		start := p.Now()
		win = &scaleWindow{warmEnd: start + cfg.Warmup, end: start + cfg.Warmup + cfg.Window}
		startWG.Done(p)
		doneWG.Wait(p)
		return nil
	})
	if err != nil {
		return err
	}

	var hist metrics.Histogram
	var booted, offered, done, errs int64
	for _, r := range res {
		if r.booted {
			booted++
		}
		offered += r.offered
		done += r.done
		errs += r.errs
		hist.Merge(&r.hist)
	}
	cell := fmt.Sprintf("%ds/%dc", shards, clients)
	secs := cfg.Window.Seconds()
	rep.add(cell, "booted", float64(booted), "count")
	rep.add(cell, "offered_kops", float64(offered)/secs/1000, "KOps/s")
	rep.add(cell, "kops", float64(done)/secs/1000, "KOps/s")
	rep.add(cell, "p50_us", float64(hist.Percentile(0.50).Nanoseconds())/1000, "us")
	rep.add(cell, "p99_us", float64(hist.Percentile(0.99).Nanoseconds())/1000, "us")
	rep.add(cell, "mean_us", float64(hist.Mean().Nanoseconds())/1000, "us")
	rep.add(cell, "errs", float64(errs), "count")
	rep.add(cell, "sim_events", float64(c.Sim.Events()), "count")
	return nil
}

// runScaleClient boots one application (session, instance lock, first WAL)
// with retries until the deadline, then offers open-loop Poisson load:
// fixed-size appends to the current WAL, rotating to a fresh WAL every
// RotateEvery records. Latency is measured from the scheduled arrival time,
// so an operation that queued behind a slow predecessor — or behind a
// saturated controller during rotation — pays for the wait.
func runScaleClient(cp *simnet.Proc, c *harness.Cluster, cfg scaleConfig,
	r *scaleClient, win **scaleWindow, bootWG, startWG *simnet.WaitGroup, i int) {

	app := cp.Node().Name()
	deadline := cp.Now() + cfg.BootDeadline
	// Stagger boots so a thousand session handshakes don't land on the same
	// tick; retries back off with jitter from the proc's own deterministic
	// stream.
	cp.Sleep(time.Duration(i) * 2 * time.Millisecond)

	// Boot in stages, keeping whatever succeeded: one lib (and hence one
	// controller session and keepalive proc) per client, however many
	// retries the lock or the first WAL open need under a saturated
	// controller. Re-creating the lib on every retry would leak a keepalive
	// proc per attempt and overstate the control-plane load.
	var (
		lib    *ncl.Lib
		lg     *ncl.Log
		locked bool
	)
	for cp.Now() < deadline {
		var err error
		if lib == nil {
			if lib, err = ncl.NewLib(cp, c.Controller, c.Fabric, cp.Node(), app, 1, c.Profile.NCL); err != nil {
				lib = nil
			}
		}
		if err == nil && !locked {
			if err = lib.AcquireInstanceLock(cp); err == nil {
				locked = true
			}
		}
		if err == nil {
			if lg, err = lib.Open(cp, "wal-0", cfg.LogBytes, true); err == nil {
				break
			}
		}
		cp.Sleep(100*time.Millisecond + time.Duration(cp.Rand().Int63n(int64(200*time.Millisecond))))
	}
	bootWG.Done(cp)
	if lg == nil {
		return
	}
	r.booted = true
	// Hold the offered load until every boot attempt has resolved and the
	// window is published. Early booters would otherwise free-run for the
	// stragglers' entire boot-retry phase — up to BootDeadline — filling
	// their fixed-capacity regions (and, on a saturated shard, exhausting
	// their rotation budget) before a single measured arrival fires.
	startWG.Wait(cp)

	buf := make([]byte, cfg.RecordBytes)
	arr := ycsb.NewArrivals(cfg.Rate, clientSeed(c, i))
	gen := 0
	sinceRotate := 0
	next := cp.Now()
	for {
		next += arr.Next()
		w := *win
		if w != nil && next >= w.end {
			return
		}
		if w != nil && cp.Now() >= w.end {
			// The window is over but this client still has a backlog of
			// scheduled arrivals (its ops queued behind a saturated control
			// plane). None of them can complete inside the window, so count
			// the in-window remainder as offered-but-failed instead of
			// grinding each one through a multi-second failing operation —
			// this is what bounds a saturated point's simulated drain time.
			for ; next < w.end; next += arr.Next() {
				if next >= w.warmEnd {
					r.offered++
					r.errs++
				}
			}
			return
		}
		if d := next - cp.Now(); d > 0 {
			cp.Sleep(d)
		}
		measured := w != nil && next >= w.warmEnd && next < w.end
		if measured {
			r.offered++
		}
		var err error
		if sinceRotate >= cfg.RotateEvery {
			// Rotation is itself an operation: open the next generation,
			// then release the old one (two ap-map proposals plus peer
			// region setup). If the control plane is too saturated to
			// rotate, degrade to appending into the current region and
			// defer the next rotation attempt by another RotateEvery
			// records — a failed rotation burns the full propose deadline,
			// so retrying it on every arrival would freeze the data path.
			// The region eventually hard-fails with ErrRegionFull if
			// rotations keep losing, which is the honest endpoint.
			var nlg *ncl.Log
			nlg, err = lib.Open(cp, fmt.Sprintf("wal-%d", gen+1), cfg.LogBytes, true)
			if err == nil {
				old := lg
				lg, gen = nlg, gen+1
				sinceRotate = 0
				err = old.Release(cp)
			} else if _, aerr := lg.Append(cp, buf); aerr == nil {
				err = nil
				sinceRotate = 1
			}
		} else {
			_, err = lg.Append(cp, buf)
			if err == nil {
				sinceRotate++
			}
		}
		if err != nil {
			if measured {
				r.errs++
			}
			continue
		}
		if measured {
			r.done++
			r.hist.Record(cp.Now() - next)
		}
	}
}
