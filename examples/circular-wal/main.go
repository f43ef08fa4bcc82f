// circular-wal: the SQLite-style store whose write-ahead log is reused as a
// circular buffer (overwrite-based reclaim, Table 2). This is the case that
// forces NCL's recovery to copy whole regions with an atomic mr-map switch
// rather than shipping log tails (Fig 7ii).
//
// The demo runs transactions until the WAL wraps several times, crashes the
// application mid-generation, recovers on a "different machine", and
// verifies every acknowledged transaction.
//
// Run with: go run ./examples/circular-wal
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"splitft/internal/apps/litedb"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	flag.Parse()
	col := trace.New()
	cluster := harness.New(harness.Options{Seed: 23, NumPeers: 4, Profile: model.Baseline(), Trace: col})
	cfg := litedb.DefaultConfig()
	cfg.LiteDBCosts = cluster.Profile.Apps.LiteDB
	cfg.Durability = litedb.SplitFT
	cfg.NPages = 256
	cfg.WALBytes = 256 << 10 // ~62 frames: wraps quickly

	err := cluster.Run(func(p *simnet.Proc) error {
		fs, err := cluster.NewFS(p, "lite-demo", 0)
		if err != nil {
			return err
		}
		db, err := litedb.Open(p, fs, cfg)
		if err != nil {
			return err
		}
		const acked = 400
		for i := 0; i < acked; i++ {
			key := fmt.Sprintf("row%04d", i%300)
			val := []byte(fmt.Sprintf("value-%06d", i))
			if err := db.Set(p, key, val); err != nil {
				return fmt.Errorf("txn %d: %w", i, err)
			}
			if i%100 == 99 {
				fmt.Printf("  %4d txns committed; WAL generation (salt) %d, checkpoints %d\n",
					i+1, i/100+1, db.Checkpoints)
			}
		}

		fmt.Println("\n*** crashing the application mid-generation ***")
		cluster.CrashApp()
		p.Sleep(10 * time.Millisecond)
		cluster.RestartApp()

		fs2, err := cluster.NewFS(p, "lite-demo", 1)
		if err != nil {
			return err
		}
		start := p.Now()
		db2, err := litedb.Recover(p, fs2, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("recovered in %v (db file + newest WAL generation replayed, then checkpointed)\n",
			(p.Now() - start).Round(time.Millisecond))

		// Verify: each of the 300 rows must hold the value of its LAST
		// acknowledged transaction.
		bad := 0
		for r := 0; r < 300; r++ {
			last := r
			for last+300 < acked {
				last += 300
			}
			want := fmt.Sprintf("value-%06d", last)
			got, ok, err := db2.Get(p, fmt.Sprintf("row%04d", r))
			if err != nil {
				return err
			}
			if !ok || string(got) != want {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d rows lost or stale after recovery", bad)
		}
		fmt.Printf("all %d acknowledged transactions intact across %d WAL wrap-arounds\n",
			acked, acked/62)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		if err := trace.WriteChromeFile(*traceOut, col.Spans()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans)\n", *traceOut, col.Len())
	}
}
