package bench

import (
	"fmt"
	"time"

	"splitft/internal/apps"
	"splitft/internal/core"
	"splitft/internal/metrics"
	"splitft/internal/raft"
	"splitft/internal/simnet"
	"splitft/internal/wire"
	"splitft/internal/ycsb"
)

// This file implements the §6 "Discussion" ablations:
//
//   - Choice of replication protocol: replicate the small writes through a
//     consensus group running on full replicas (Paxos-family; our Raft)
//     instead of NCL's passive-memory protocol, and compare latency,
//     throughput, and resource footprint.
//   - Fine-granular write splitting: a file receiving both small and large
//     writes, handled by a size threshold (core.SplitFile) versus
//     all-to-dfs-synchronously and all-to-NCL.
//   - No-log applications: a KVell-style store with NCL as a random-write
//     absorber tier versus per-put dfs fsyncs and unsafe buffering.

// ablateRepl measures replicating 128-byte log writes via NCL versus via a
// consensus group whose replicas each run the full logging service (the
// paper's argument for a custom protocol, §6). active_cpus counts the nodes
// running application logic.
func ablateRepl(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Ablation: replication protocol for small writes (128B, 12 writers)"}
	const nclCell, raftCell = "NCL (passive peers)", "Consensus (full replicas)"

	// NCL side.
	c := newCluster(&rep, sc, seed)
	err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "ablate-ncl", 0)
		if err != nil {
			return err
		}
		f, err := fs.OpenFile(p, "log", core.O_NCL|core.O_CREATE, 64<<20)
		if err != nil {
			return err
		}
		buf := make([]byte, 128)
		replWriters(p, &rep, nclCell, c.AppNode, sc.RunDur, false, func(wp *simnet.Proc) error {
			_, err := f.Write(wp, buf)
			return err
		})
		rep.add(nclCell, "active_cpus", 1, "count")
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Consensus side: a 3-replica Raft group logging the same records.
	c2 := newCluster(&rep, sc, seed+1)
	err = c2.Run(func(p *simnet.Proc) error {
		ids := []string{"r0", "r1", "r2"}
		nodes := make([]*simnet.Node, len(ids))
		for i, id := range ids {
			nodes[i] = c2.Sim.NewNode(id)
		}
		cl := raft.New(c2.Sim, "repl-log", c2.Profile.Controller.Raft, ids, func() raft.StateMachine { return &appendSM{} })
		for i, id := range ids {
			cl.StartNode(nodes[i], id)
		}
		p.Sleep(time.Second) // election
		client := raft.NewClient(cl, c2.AppNode)
		client.Propose(p, wire.Msg{Code: codeRaftRec}) //nolint:errcheck

		rec := wire.Msg{Code: codeRaftRec, B: make([]byte, 128)}
		replWriters(p, &rep, raftCell, c2.AppNode, sc.RunDur, true, func(wp *simnet.Proc) error {
			_, err := client.Propose(wp, rec)
			return err
		})
		rep.add(raftCell, "active_cpus", float64(len(ids)), "count")
		return nil
	})
	return rep, err
}

// replWriters drives 12 closed-loop writers on node for the window and
// records their mean latency and throughput in cell. A failed write either
// is retried or ends that writer.
func replWriters(p *simnet.Proc, rep *Report, cell string, node *simnet.Node, window time.Duration,
	retry bool, write func(wp *simnet.Proc) error) {

	const writers = 12
	var hist metrics.Histogram
	count := int64(0)
	end := p.Now() + window
	var wg simnet.WaitGroup
	wg.Add(writers)
	for i := 0; i < writers; i++ {
		p.GoOn(node, fmt.Sprintf("w%d", i), func(wp *simnet.Proc) {
			defer wg.Done(wp)
			for wp.Now() < end {
				t0 := wp.Now()
				if err := write(wp); err != nil {
					if retry {
						continue
					}
					return
				}
				hist.Record(wp.Now() - t0)
				count++
			}
		})
	}
	wg.Wait(p)
	rep.dur(cell, "mean_lat", hist.Mean())
	rep.add(cell, "kops", float64(count)/window.Seconds()/1000, "KOps/s")
}

// appendSM is the trivial replicated log used by the consensus baseline.
type appendSM struct{ n int }

func (m *appendSM) Apply(cmd wire.Msg) wire.Msg {
	m.n++
	r := wire.Msg{Code: wire.CodeAck}
	r.SetInt(0, int64(m.n))
	return r
}

// ablateSplit exercises the §6 extension: one file receiving mostly small
// writes with occasional large ones, under three strategies (one cell each).
func ablateSplit(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Ablation: fine-granular write splitting (95% 128B, 5% 128KB pwrites)"}
	const ops = 4000
	small := make([]byte, 128)
	large := make([]byte, 128<<10)

	run := func(strategy string,
		setup func(p *simnet.Proc, fs *core.FS) (func(p *simnet.Proc, data []byte, off int64) error, error)) error {
		c := newCluster(&rep, sc, seed)
		return c.Run(func(p *simnet.Proc) error {
			fs, err := c.NewFS(p, "ablate-split", 0)
			if err != nil {
				return err
			}
			w, err := setup(p, fs)
			if err != nil {
				return err
			}
			var smallH, largeH metrics.Histogram
			start := p.Now()
			off := int64(0)
			for i := 0; i < ops; i++ {
				data := small
				if i%20 == 19 {
					data = large
				}
				t0 := p.Now()
				if err := w(p, data, off%(4<<20)); err != nil {
					return err
				}
				if len(data) == len(small) {
					smallH.Record(p.Now() - t0)
				} else {
					largeH.Record(p.Now() - t0)
				}
				off += int64(len(data))
			}
			rep.dur(strategy, "small_lat", smallH.Mean())
			rep.dur(strategy, "large_lat", largeH.Mean())
			rep.add(strategy, "kops", float64(ops)/(p.Now()-start).Seconds()/1000, "KOps/s")
			return nil
		})
	}

	// Strategy 1: everything to the dfs with a sync per write.
	if err := run("dfs (sync)", func(p *simnet.Proc, fs *core.FS) (func(*simnet.Proc, []byte, int64) error, error) {
		f, err := fs.OpenFile(p, "/mixed", core.O_CREATE, 0)
		if err != nil {
			return nil, err
		}
		return func(p *simnet.Proc, data []byte, off int64) error {
			if _, err := f.Pwrite(p, data, off); err != nil {
				return err
			}
			return f.Sync(p)
		}, nil
	}); err != nil {
		return rep, err
	}

	// Strategy 2: everything through NCL (large writes hog the log region
	// and the replication path).
	if err := run("all NCL", func(p *simnet.Proc, fs *core.FS) (func(*simnet.Proc, []byte, int64) error, error) {
		f, err := fs.OpenFile(p, "mixed-ncl", core.O_NCL|core.O_CREATE, 8<<20)
		if err != nil {
			return nil, err
		}
		return func(p *simnet.Proc, data []byte, off int64) error {
			_, err := f.Pwrite(p, data, off)
			return err
		}, nil
	}); err != nil {
		return rep, err
	}

	// Strategy 3: the SplitFile threshold router.
	if err := run("split (threshold)", func(p *simnet.Proc, fs *core.FS) (func(*simnet.Proc, []byte, int64) error, error) {
		sf, err := fs.OpenSplit(p, "/mixed-split", 4096, 8<<20)
		if err != nil {
			return nil, err
		}
		count := 0
		return func(p *simnet.Proc, data []byte, off int64) error {
			count++
			if count%1000 == 0 {
				if err := sf.Checkpoint(p); err != nil { // keep the journal bounded
					return err
				}
			}
			_, err := sf.Pwrite(p, data, off)
			return err
		}, nil
	}); err != nil {
		return rep, err
	}
	return rep, nil
}

// ablateNoLog runs a uniform random-put workload against the KVell-style
// no-log store (§6 "Supporting Non-Log Files and Applications") in the
// three configurations, labelled by what they mean for a store without a
// log: NCL as an absorber tier should approach the unsafe buffered mode
// while keeping per-put durability. can_lose_acked marks the configuration
// that can lose acknowledged puts.
func ablateNoLog(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: "Ablation: no-log store (KVell-style), uniform random puts"}
	port, _ := apps.Lookup("kvell")
	labels := map[string]string{CfgStrong: "dft-sync", CfgWeak: "dft-async", CfgSplitFT: "ncl-tier"}
	for _, cfg := range AllConfigs {
		cell := labels[cfg]
		c := newCluster(&rep, sc, seed)
		err := c.Run(func(p *simnet.Proc) error {
			s, err := newApp(c, p, port, cfg, 0)
			if err != nil {
				return err
			}
			g := ycsb.NewGenerator(ycsb.Spec{Name: "w", UpdateProp: 1, Dist: ycsb.Uniform}, sc.LoadKeys, seed)
			var hist metrics.Histogram
			count := 0
			end := p.Now() + sc.RunDur
			for p.Now() < end {
				op := g.Next()
				t0 := p.Now()
				if err := s.Put(p, op.Key, g.Value()); err != nil {
					return err
				}
				hist.Record(p.Now() - t0)
				count++
			}
			rep.add(cell, "kops", float64(count)/sc.RunDur.Seconds()/1000, "KOps/s")
			rep.dur(cell, "mean_lat", hist.Mean())
			lossy := 0.0
			if cfg == CfgWeak {
				lossy = 1
			}
			rep.add(cell, "can_lose_acked", lossy, "bool")
			return nil
		})
		if err != nil {
			return rep, fmt.Errorf("ablate-nolog %s: %w", cell, err)
		}
	}
	return rep, nil
}
