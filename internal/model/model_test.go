package model

import (
	"errors"
	"os"
	"path/filepath"
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

func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != 3 || names[0] != "CX4RoCE25" {
		t.Fatalf("Names() = %v, want baseline first of three", names)
	}
	for _, n := range names {
		p, ok := ByName(n)
		if !ok || p.Name != n {
			t.Errorf("ByName(%q) = %v, %v", n, p, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted an unknown name")
	}
}

func TestVariantProfilesMoveTheRightAxis(t *testing.T) {
	base := Baseline()
	cx6 := CX6RoCE100()
	if cx6.RDMA.WRBase >= base.RDMA.WRBase || cx6.RDMA.Bandwidth <= base.RDMA.Bandwidth {
		t.Errorf("CX6RoCE100 fabric not faster: %+v", cx6.RDMA)
	}
	// A faster NIC speeds up the dfs chain links (LinkBandwidth) but must
	// leave the storage medium itself alone.
	if cx6.DFS.LinkBandwidth <= base.DFS.LinkBandwidth {
		t.Errorf("CX6RoCE100 chain links not faster: %v", cx6.DFS.LinkBandwidth)
	}
	cx6DFS := cx6.DFS
	cx6DFS.LinkBandwidth = base.DFS.LinkBandwidth
	if cx6DFS != base.DFS {
		t.Error("CX6RoCE100 should leave storage unchanged")
	}
	fast := FastDFS()
	if fast.DFS.SyncFixed >= base.DFS.SyncFixed || fast.DFS.WriteBandwidth <= base.DFS.WriteBandwidth {
		t.Errorf("FastDFS storage not faster: %+v", fast.DFS)
	}
	if fast.RDMA != base.RDMA {
		t.Error("FastDFS should leave the fabric unchanged")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prof.json")
	p := CX6RoCE100()
	p.DFS.SyncFixed = 1234 * time.Microsecond
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

// A profile file that names a field Profile does not have — a typo, or a
// knob that has become a constant beside its protocol — fails to load
// instead of running the baseline's value under the file's name.
func TestLoadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"typo":     `{"NCL":{"SuspectColdown":5}}`,
		"folded":   `{"NCL":{"SuspectCooldown":5}}`,
		"trailing": `{"NetLatency":7} {}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: Load(%s) succeeded, want an error", name, body)
		}
	}
	path := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(path, []byte(`{"NetLatency":7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := Load(path); err != nil || p.NetLatency != 7 || p.RDMA != Baseline().RDMA {
		t.Errorf("partial profile: %+v, %v; want NetLatency 7 over the baseline", p, err)
	}
}

func TestResolve(t *testing.T) {
	if p, err := Resolve("CX6RoCE100"); err != nil || p.Name != "CX6RoCE100" {
		t.Errorf("Resolve(name) = %v, %v", p, err)
	}
	path := filepath.Join(t.TempDir(), "hw.json")
	if err := FastDFS().Save(path); err != nil {
		t.Fatal(err)
	}
	if p, err := Resolve(path); err != nil || p.Name != "FastDFS" {
		t.Errorf("Resolve(path) = %v, %v", p, err)
	}
	if _, err := Resolve("bogus"); !errors.Is(err, ErrUnknownProfile) {
		t.Errorf("Resolve(bogus) err = %v, want ErrUnknownProfile", err)
	}
	if _, err := Resolve(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("Resolve(missing file) should fail")
	}
}

func TestTargetsTrackTheProfile(t *testing.T) {
	base := Targets(Baseline())
	fast := Targets(CX6RoCE100())
	if len(base) != 5 || len(fast) != 5 {
		t.Fatalf("want 5 targets, got %d/%d", len(base), len(fast))
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
	// A faster fabric must lower the NCL and MR expectations but leave the
	// dfs expectation alone.
	if f := byProbe(fast, ProbeNCLRecord128); f.Expect >= byProbe(base, ProbeNCLRecord128).Expect {
		t.Errorf("CX6 NCL target %v not below baseline", f.Expect)
	}
	if f := byProbe(fast, ProbeMRRegister60MB); f.Expect >= byProbe(base, ProbeMRRegister60MB).Expect {
		t.Errorf("CX6 MR target %v not below baseline", f.Expect)
	}
	if byProbe(fast, ProbeDFSSyncWrite128).Expect != byProbe(base, ProbeDFSSyncWrite128).Expect {
		t.Error("CX6 should not move the dfs target")
	}
	// Chain appends are link-bound, so the faster fabric lowers them too.
	if f := byProbe(fast, ProbeChainAppend64MB); f.Expect >= byProbe(base, ProbeChainAppend64MB).Expect {
		t.Errorf("CX6 chain-append target %v not below baseline", f.Expect)
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
