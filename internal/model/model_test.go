package model

import (
	"testing"
	"time"
)

func TestBaselineConstants(t *testing.T) {
	p := Baseline()
	// Spot-check values migrated from the per-package Default* functions;
	// a drift here silently re-calibrates every experiment.
	if p.Name != "CX4RoCE25" {
		t.Errorf("baseline name = %q, want CX4RoCE25", p.Name)
	}
	if p.RDMA.WRBase != 1500*time.Nanosecond {
		t.Errorf("RDMA.WRBase = %v, want 1.5us", p.RDMA.WRBase)
	}
	if p.RDMA.Bandwidth != 3e9 {
		t.Errorf("RDMA.Bandwidth = %v, want 3e9", p.RDMA.Bandwidth)
	}
	if p.DFS.SyncFixed != 2300*time.Microsecond {
		t.Errorf("DFS.SyncFixed = %v, want 2.3ms", p.DFS.SyncFixed)
	}
	if p.LocalFS.SyncFixed != 900*time.Microsecond {
		t.Errorf("LocalFS.SyncFixed = %v, want 0.9ms", p.LocalFS.SyncFixed)
	}
	if p.Controller.Raft.FsyncCost != 800*time.Microsecond {
		t.Errorf("Raft.FsyncCost = %v, want 0.8ms", p.Controller.Raft.FsyncCost)
	}
	if p.Peer.LendableMem != 1<<30 {
		t.Errorf("Peer.LendableMem = %v, want 1GiB", p.Peer.LendableMem)
	}
	if p.NCL.Replication != "mirror" {
		t.Errorf("NCL.Replication = %q, want mirror", p.NCL.Replication)
	}
	if p.NCL.DefaultRegionSize != 64<<20 {
		t.Errorf("NCL.DefaultRegionSize = %d, want 64MiB", p.NCL.DefaultRegionSize)
	}
	if p.Apps.KVStore.EncodeCPU != 600*time.Nanosecond {
		t.Errorf("KVStore.EncodeCPU = %v, want 600ns", p.Apps.KVStore.EncodeCPU)
	}
	if p.NetLatency != 5*time.Microsecond {
		t.Errorf("NetLatency = %v, want 5us", p.NetLatency)
	}
}

func TestProfilesAreIsolatedCopies(t *testing.T) {
	a := Baseline()
	a.RDMA.WRBase = time.Hour
	if b := Baseline(); b.RDMA.WRBase == time.Hour {
		t.Fatal("mutating a returned profile leaked into the shared baseline")
	}
}

func TestTargetsTrackTheProfile(t *testing.T) {
	base := Targets(Baseline())
	// A faster fabric: a lower WR base and faster chain links.
	fast := Baseline()
	fast.RDMA.WRBase = 800 * time.Nanosecond
	fast.DFS.LinkBandwidth = 12e9
	moved := Targets(fast)
	if len(base) != 5 || len(moved) != 5 {
		t.Fatalf("want 5 targets, got %d/%d", len(base), len(moved))
	}
	byProbe := func(ts []Target, probe string) Target {
		for _, x := range ts {
			if x.Probe == probe {
				return x
			}
		}
		t.Fatalf("missing target %s", probe)
		return Target{}
	}
	// The lower WR base lowers the NCL expectation; the probes neither
	// field enters stay where they were.
	if f := byProbe(moved, ProbeNCLRecord128); f.Expect >= byProbe(base, ProbeNCLRecord128).Expect {
		t.Errorf("faster-fabric NCL target %v not below baseline", f.Expect)
	}
	for _, probe := range []string{ProbeMRRegister60MB, ProbeDFSSyncWrite128, ProbeControllerOp} {
		if byProbe(moved, probe).Expect != byProbe(base, probe).Expect {
			t.Errorf("the fabric's WR base and chain links moved the %s target", probe)
		}
	}
	// Chain appends are link-bound, so faster links lower them.
	if f := byProbe(moved, ProbeChainAppend64MB); f.Expect >= byProbe(base, ProbeChainAppend64MB).Expect {
		t.Errorf("faster-link chain-append target %v not below baseline", f.Expect)
	}
	// A profile without an extent plane has no chain target.
	noExt := Baseline()
	noExt.DFS.ExtentNodes = 0
	if got := Targets(noExt); len(got) != 4 {
		t.Errorf("extent-less profile: want 4 targets, got %d", len(got))
	}
	for _, x := range base {
		if x.Lo >= x.Expect || x.Hi <= x.Expect {
			t.Errorf("%s: band [%v, %v] does not bracket %v", x.Probe, x.Lo, x.Hi, x.Expect)
		}
	}
}

func TestCalibrateJudging(t *testing.T) {
	p := Baseline()
	ts := Targets(p)
	var good []Measurement
	for _, x := range ts {
		good = append(good, Measurement{Probe: x.Probe, Value: x.Expect})
	}
	if rep := Calibrate(p, good); !rep.Pass() {
		t.Errorf("on-target measurements failed:\n%s", rep.Render())
	}
	// One probe out of band fails the whole report.
	bad := append([]Measurement{}, good...)
	bad[0].Value = ts[0].Hi + time.Second
	if rep := Calibrate(p, bad); rep.Pass() {
		t.Error("out-of-band measurement passed")
	}
	// A missing probe fails too.
	if rep := Calibrate(p, good[1:]); rep.Pass() {
		t.Error("missing measurement passed")
	}
	if rep := Calibrate(p, nil); rep.Pass() {
		t.Error("empty measurements passed")
	}
}
