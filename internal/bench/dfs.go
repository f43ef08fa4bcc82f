package bench

import (
	"fmt"
	"time"

	"splitft/internal/apps"
	"splitft/internal/core"
	"splitft/internal/dfs"
	"splitft/internal/simnet"
)

// The dfs experiment sweeps the extent-backed data path behind
// `splitft-bench dfs`: the flat primary-copy sync against the chained
// append at the headline 64 MB size, the chain across IO sizes, the
// extent-size x chain-length grid, and a full 1M-row kvstore load whose
// flushes all ride the chains. Every number is virtual time, so the report
// is deterministic for a given profile and seed — BENCH_dfs.json keeps it
// pinned in CI and a silent cost-model shift fails the diff loudly.

// dfsSyncDur measures the virtual duration of one synced write of n bytes
// on a fresh cluster, with the profile's DFS params overridden by params
// unless nil. Extent-backed when ext is true. A small warm-up append primes
// the extent-ID lease so the measured sync sees the steady state, not the
// first allocation round trip.
func dfsSyncDur(rep *Report, sc Scale, seed int64, n int64, ext bool, params *dfs.Params) (time.Duration, error) {
	c := newClusterDFS(rep, sc, seed, params)
	var dur time.Duration
	err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "dfsbench", 0)
		if err != nil {
			return err
		}
		flags := core.O_CREATE
		if ext {
			flags |= core.O_EXTENT
		}
		f, err := fs.OpenFile(p, "/bench/f", flags, 0)
		if err != nil {
			return err
		}
		if ext {
			if _, err := f.Write(p, make([]byte, 128)); err != nil {
				return err
			}
			if err := f.Sync(p); err != nil {
				return err
			}
		}
		if _, err := f.Write(p, make([]byte, n)); err != nil {
			return err
		}
		start := p.Now()
		if err := f.Sync(p); err != nil {
			return err
		}
		dur = p.Now() - start
		return nil
	})
	return dur, err
}

// dfsRow records a measurement as one cell, with MB/s derived from virtual
// time.
func dfsRow(rep *Report, name string, n int64, dur time.Duration) {
	rep.add(name, "bytes", float64(n), "bytes")
	rep.dur(name, "virtual_ns", dur)
	rep.add(name, "mb_per_sec", float64(n)/dur.Seconds()/1e6, "MB/s")
}

// dfsHeadlineBytes is the large-IO size of the headline flat-vs-chain
// comparison (the SSTable-flush class of Fig 1).
const dfsHeadlineBytes = 64 << 20

// dfsKvloadKeys sizes the end-to-end load row: 1M rows, every memtable
// flush and compaction riding the extent chains.
const dfsKvloadKeys = 1_000_000

// dfsSweep runs the data-path sweep.
func dfsSweep(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: fmt.Sprintf("DFS data path (virtual time, profile %s)", sc.profile().Name)}

	// Headline: flat primary-copy sync vs chained append, same bytes. Then
	// the IO-size sweep down the chain: small appends are fixed-cost bound,
	// large ones pipeline at link bandwidth.
	for _, row := range []struct {
		name string
		n    int64
		ext  bool
	}{
		{"flat-sync-64MB", dfsHeadlineBytes, false}, {"chain-append-64MB", dfsHeadlineBytes, true},
		{"chain-append-512B", 512, true}, {"chain-append-64KB", 64 << 10, true},
		{"chain-append-1MB", 1 << 20, true}, {"chain-append-8MB", 8 << 20, true},
	} {
		d, err := dfsSyncDur(&rep, sc, seed, row.n, row.ext, nil)
		if err != nil {
			return rep, err
		}
		dfsRow(&rep, row.name, row.n, d)
	}

	// Extent-size x chain-length grid at the headline size: extent size
	// sets how often the stream switches chains (parallelism across
	// nodes), chain length sets the replication depth each frame pays.
	for _, extMB := range []int64{1, 4, 16} {
		for _, k := range []int{2, 3, 5} {
			params := sc.profile().DFS
			params.ExtentSize = extMB << 20
			params.ChainLength = k
			d, err := dfsSyncDur(&rep, sc, seed, dfsHeadlineBytes, true, &params)
			if err != nil {
				return rep, err
			}
			dfsRow(&rep, fmt.Sprintf("chain-64MB-ext%dMB-k%d", extMB, k), dfsHeadlineBytes, d)
		}
	}

	// End-to-end: a 1M-row kvstore load on the full SplitFT stack. The
	// row records the virtual time the load takes with WAL appends on NCL
	// and every flush/compaction on the extent plane; the gate only needs
	// it bounded and stable.
	lsc := sc
	lsc.LoadKeys = dfsKvloadKeys
	c := newClusterSized(&rep, lsc, seed, apps.DatasetBytes(lsc.LoadKeys))
	err := c.Run(func(p *simnet.Proc) error {
		a, err := newApp(c, p, kvPort, CfgSplitFT, lsc.LoadKeys)
		if err != nil {
			return err
		}
		start := p.Now()
		if err := a.load(p, lsc.LoadKeys); err != nil {
			return err
		}
		rep.add("kvload-1M", "bytes", float64(apps.DatasetBytes(lsc.LoadKeys)), "bytes")
		rep.dur("kvload-1M", "virtual_ns", p.Now()-start)
		return nil
	})
	return rep, err
}
