// kvstore-ycsb: the RocksDB-style LSM store under a YCSB workload in the
// three configurations the paper compares — weak-app DFT, strong-app DFT,
// and SplitFT — followed by a crash-recovery check showing where each
// configuration lands on the guarantees/performance trade-off.
//
// Run with: go run ./examples/kvstore-ycsb
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"splitft/internal/apps/applog"
	"splitft/internal/apps/kvstore"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/ycsb"
)

const (
	loadKeys = 20000
	runFor   = 300 * time.Millisecond
	threads  = 16
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of all three runs to this file")
	flag.Parse()
	var col *trace.Collector
	if *traceOut != "" {
		col = trace.New()
	}
	fmt.Printf("%-10s %12s %16s %16s\n", "config", "YCSB-A KOps/s", "acked pre-crash", "survived crash")
	for _, d := range []applog.Durability{applog.Weak, applog.Strong, applog.SplitFT} {
		kops, acked, survived, err := runConfig(d, col)
		if err != nil {
			log.Fatalf("%s: %v", d, err)
		}
		fmt.Printf("%-10s %12.1f %16d %16d\n", d, kops, acked, survived)
	}
	fmt.Println("\nweak is fast but loses acknowledged data; strong loses nothing but is slow;")
	fmt.Println("SplitFT keeps weak-mode speed with strong-mode guarantees.")
	if *traceOut != "" {
		if err := trace.WriteChromeFile(*traceOut, col.Spans()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans; one pid per configuration)\n", *traceOut, col.Len())
	}
}

func runConfig(d applog.Durability, col *trace.Collector) (kops float64, acked, survived int, err error) {
	c := harness.New(harness.Options{Seed: 7, NumPeers: 4, Profile: model.Baseline(), Trace: col})
	cfg := kvstore.DefaultConfig()
	cfg.KVStoreCosts = c.Profile.Apps.KVStore
	cfg.Durability = d
	cfg.MemtableBytes = 1 << 20
	cfg.WALRegion = 3 << 20
	err = c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "kv-example", 0)
		if err != nil {
			return err
		}
		db, err := kvstore.Open(p, fs, cfg)
		if err != nil {
			return err
		}
		val := make([]byte, ycsb.ValueSize)
		for i := int64(0); i < loadKeys; i++ {
			if err := db.Put(p, ycsb.Key(i), val); err != nil {
				return err
			}
		}

		// Drive YCSB-A from concurrent worker procs on the app node,
		// remembering exactly which keys were acknowledged as updated.
		var wg simnet.WaitGroup
		wg.Add(threads)
		ops := 0
		updated := map[string]bool{}
		end := p.Now() + runFor
		for t := 0; t < threads; t++ {
			g := ycsb.NewGenerator(ycsb.WorkloadA, loadKeys, int64(t)+1)
			p.GoOn(c.AppNode, fmt.Sprintf("worker%d", t), func(wp *simnet.Proc) {
				defer wg.Done(wp)
				for wp.Now() < end {
					op := g.Next()
					switch op.Type {
					case ycsb.Read:
						db.Get(wp, op.Key)
						ops++
					default:
						if db.Put(wp, op.Key, g.Value()) == nil {
							ops++
							updated[op.Key] = true
						}
					}
				}
			})
		}
		wg.Wait(p)
		kops = float64(ops) / runFor.Seconds() / 1000

		// Crash and recover; count surviving acknowledged updates.
		c.CrashApp()
		p.Sleep(10 * time.Millisecond)
		c.RestartApp()
		fs2, err := c.NewFS(p, "kv-example", 1)
		if err != nil {
			return err
		}
		db2, err := kvstore.Recover(p, fs2, cfg)
		if err != nil {
			return err
		}
		// Every loaded key must exist; updated values may be lost in weak.
		missing := 0
		for i := int64(0); i < loadKeys; i += 97 {
			_, ok, err := db2.Get(p, ycsb.Key(i))
			if err != nil {
				return err
			}
			if !ok {
				missing++
			}
		}
		// An updated key survives if its value is no longer the loaded
		// zero-value (generator values always start with a non-zero byte).
		for key := range updated {
			v, ok, err := db2.Get(p, key)
			if err != nil {
				return err
			}
			if ok && len(v) == ycsb.ValueSize && !allZero(v[:8]) {
				survived++
			}
		}
		acked = len(updated)
		if missing > 0 {
			return fmt.Errorf("%d loaded keys missing after recovery", missing)
		}
		return nil
	})
	return kops, acked, survived, err
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
