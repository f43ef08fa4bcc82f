// Quickstart: the SplitFT public API in one file.
//
// It builds the simulated testbed (controller, dfs, RDMA fabric, log
// peers), opens one file with O_NCL and one without, writes to both,
// crashes the application server, and recovers — showing that every
// acknowledged NCL write survives while the latency stayed microseconds.
//
// Run with: go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"log"

	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	flag.Parse()
	// The hardware cost model is model.Baseline(), the paper's CX4RoCE25
	// testbed; change a field of the copy to try other hardware.
	// The collector records every layer's spans on the virtual clock.
	col := trace.New()
	cluster := harness.New(harness.Options{Seed: 42, NumPeers: 4, Profile: model.Baseline(), Trace: col})

	err := cluster.Run(func(p *simnet.Proc) error {
		// --- first application instance ---
		fs, err := cluster.NewFS(p, "quickstart", 0) // fencing 0: first boot
		if err != nil {
			return err
		}
		// A write-ahead log: small synchronous writes -> O_NCL routes it
		// to near-compute logs. Every Write returns only after a
		// majority of log peers holds it.
		wal, err := fs.OpenFile(p, "app.wal", core.O_NCL|core.O_CREATE, 1<<20)
		if err != nil {
			return err
		}
		// A checkpoint: one large background write -> straight to the dfs.
		ckpt, err := fs.OpenFile(p, "/data/checkpoint", core.O_CREATE, 0)
		if err != nil {
			return err
		}

		var acked int
		start := p.Now()
		for i := 0; i < 1000; i++ {
			rec := []byte(fmt.Sprintf("update-%04d;", i))
			if _, err := wal.Write(p, rec); err != nil {
				return err
			}
			acked++
		}
		fmt.Printf("1000 NCL log writes acknowledged, avg %v each (majority-replicated)\n",
			(p.Now()-start)/1000)

		if _, err := ckpt.Write(p, make([]byte, 4<<20)); err != nil {
			return err
		}
		if err := ckpt.Sync(p); err != nil {
			return err
		}
		fmt.Println("4MB checkpoint written durably to the dfs")

		fmt.Println("\n*** crashing the application server ***")
		cluster.CrashApp()
		p.Sleep(10 * 1e6)
		cluster.RestartApp()

		// --- recovered instance (possibly a different machine) ---
		fs2, err := cluster.NewFS(p, "quickstart", 1) // fencing 1: restart
		if err != nil {
			return err
		}
		names, err := fs2.ListNCL(p)
		if err != nil {
			return err
		}
		fmt.Printf("ncl files recorded in the ap-map: %v\n", names)

		mark := col.Len()
		wal2, err := fs2.OpenFile(p, "app.wal", core.O_NCL, 0) // recovery path
		if err != nil {
			return err
		}
		// The open returns once the log's size is known; the read below
		// blocks only until its bytes have arrived, and Sync is the barrier
		// behind which the log is as redundant as before the crash — where a
		// recovery's spans end.
		buf := make([]byte, wal2.Size())
		if _, err := wal2.Pread(p, buf, 0); err != nil {
			return err
		}
		if err := wal2.Sync(p); err != nil {
			return err
		}
		spans := col.Since(mark)
		fmt.Printf("recovered %d bytes from log peers in %v "+
			"(get peer %v, connect %v, rdma read %v, sync peer %v)\n",
			wal2.Size(), trace.First(spans, "ncl", "recover").Dur().Round(1e5),
			trace.Sum(spans, "ncl", "recover.getpeer").Round(1e5),
			trace.Sum(spans, "ncl", "recover.connect").Round(1e5),
			trace.Sum(spans, "ncl", "recover.rdmaread").Round(1e5),
			trace.Sum(spans, "ncl", "recover.syncpeer").Round(1e5))

		got := 0
		for i := 0; i+12 <= len(buf); i += 12 {
			got++
		}
		fmt.Printf("acknowledged before crash: %d records; recovered: %d records\n", acked, got)
		if got < acked {
			return fmt.Errorf("LOST DATA: %d < %d", got, acked)
		}
		fmt.Println("no acknowledged write was lost — strong guarantees at weak-mode latency")
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
