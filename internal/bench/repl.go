package bench

import (
	"fmt"
	"time"

	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/metrics"
	"splitft/internal/model"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
)

// The repl experiment sweeps the NCL replication policies behind
// `splitft-bench repl`: for each policy it fills one log
// with synchronous records, reads the peer registry's memory bill, then
// crashes the application and times a full recovery — the recovering open
// through its barrier (Sync), where the log is as redundant as before. The three columns are
// the policy trade-off the redesign exists to expose — memory overhead
// (mirror ~3x vs ec(k,m) at (k+m)/k), write latency (quorum's one-RTT
// single-WR ack vs mirror's data+header pair vs ec's encode+all-cells ack),
// and recovery time (mirror's prefetch vs reconstruction/read-repair).
// Virtual time keeps every number deterministic; BENCH_repl.json pins the
// sweep in CI and the repl gate fails loudly on silent drift.

// replPolicies is the sweep's policy axis: the paper's mirror protocol as
// the anchor, the erasure-coded layout at the canonical 4+2 shape, and the
// one-RTT quorum variant.
var replPolicies = []string{"mirror", "ec:4,2", "quorum"}

const (
	// replRecords x replRecBytes fills ~1 MiB of log — large enough that
	// recovery moves real bytes, small enough to run in well under a second.
	replRecords  = 256
	replRecBytes = 4096
	// replCapacity leaves headroom so no policy's frame budget interferes
	// with the measurement (records are >= 2 KiB, the ec sizing floor).
	replCapacity = int64(replRecords*replRecBytes) + (1 << 20)
	// replPeerMem fixes the lendable pool so the registry's memory bill
	// (LendableMem - Avail) is attributable to the one benchmark log.
	replPeerMem = 512 << 20
)

// repl runs the policy sweep: one cell per policy with mem_factor in remote
// bytes per byte of log capacity.
func repl(sc Scale, seed int64) (Report, error) {
	rep := Report{Title: fmt.Sprintf("NCL replication policies (%d x 4 KiB records, virtual time)", replRecords)}
	for _, pol := range replPolicies {
		if err := replOnce(&rep, sc, seed, pol); err != nil {
			return rep, fmt.Errorf("repl %s: %w", pol, err)
		}
	}
	return rep, nil
}

// replOnce measures one policy's cell on a fresh cluster. The profile is a
// fresh baseline, not the scale's: -replicate must not move the sweep.
func replOnce(rep *Report, sc Scale, seed int64, policy string) error {
	prof := model.Baseline()
	prof.NCL.Replication = policy
	c := newTestbed(rep, sc, harness.Options{
		Seed: seed, NumPeers: 8, PeerMem: replPeerMem, AppCores: 10,
		WithLocalFS: true, Profile: prof,
	})
	return c.Run(func(p *simnet.Proc) error {
		var hist metrics.Histogram
		fs, err := core.NewFS(p, c.FSOptions("repl", 0))
		if err != nil {
			return err
		}
		nf, err := fs.OpenFile(p, "wal-000", core.O_NCL|core.O_CREATE, replCapacity)
		if err != nil {
			return err
		}
		rec := make([]byte, replRecBytes)
		for i := 0; i < replRecords; i++ {
			t0 := p.Now()
			if _, err := nf.Write(p, rec); err != nil {
				return err
			}
			hist.Record(p.Now() - t0)
		}

		// The registry's bill for this log: every byte the peers stopped
		// lending: the placement's Slots x SlotRegion.
		var reserved int64
		for _, pr := range c.Peers {
			reserved += replPeerMem - pr.Avail()
		}
		rep.add(policy, "mem_factor", float64(reserved)/float64(replCapacity), "x")
		rep.dur(policy, "write_p50_ns", hist.Percentile(0.50))
		rep.dur(policy, "write_p99_ns", hist.Percentile(0.99))

		c.CrashApp()
		p.Sleep(10 * time.Millisecond)
		c.RestartApp()
		fs2, err := core.NewFS(p, c.FSOptions("repl", 1))
		if err != nil {
			return err
		}
		start := p.Now()
		nf2, err := fs2.OpenFile(p, "wal-000", core.O_NCL, 0)
		if err == nil {
			err = nf2.Sync(p)
		}
		if err != nil {
			return err
		}
		rep.dur(policy, "recovery_ns", p.Now()-start)
		if nf2.Size() != int64(replRecords*replRecBytes) {
			return fmt.Errorf("recovered %d bytes, want %d", nf2.Size(), replRecords*replRecBytes)
		}
		// Recovered under the policy it was written with, regardless of the
		// recovering process's own defaults.
		if got := nf2.(hasLog).Log().Policy().String(); got != policySpecString(policy) {
			return fmt.Errorf("recovered under %s, want %s", got, policy)
		}
		return nil
	})
}

// policySpecString canonicalizes a policy string through the parser.
func policySpecString(s string) string {
	spec, err := ncl.ParsePolicy(s)
	if err != nil {
		return s
	}
	return spec.String()
}
