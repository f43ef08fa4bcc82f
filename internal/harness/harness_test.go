package harness

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"splitft/internal/controller"
	"splitft/internal/core"
	"splitft/internal/model"
	"splitft/internal/ncl"
	"splitft/internal/peer"
	"splitft/internal/simnet"
	"splitft/internal/wire"
)

func TestRunBootsEverything(t *testing.T) {
	c := New(Options{Seed: 1, NumPeers: 3, WithLocalFS: true})
	err := c.Run(func(p *simnet.Proc) error {
		if len(c.Peers) != 3 {
			t.Errorf("peers booted = %d", len(c.Peers))
		}
		if c.LocalFS == nil {
			t.Error("local fs cluster missing")
		}
		fs, err := c.NewFS(p, "app", 0)
		if err != nil {
			return err
		}
		// NCL and dfs paths both usable out of the box.
		nf, err := fs.OpenFile(p, "log", core.O_NCL|core.O_CREATE, 1<<20)
		if err != nil {
			return err
		}
		if _, err := nf.Write(p, []byte("x")); err != nil {
			return err
		}
		df, err := fs.OpenFile(p, "/data", core.O_CREATE, 0)
		if err != nil {
			return err
		}
		if _, err := df.Write(p, []byte("y")); err != nil {
			return err
		}
		return df.Sync(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	c := New(Options{Seed: 2, NumPeers: 2})
	sentinel := errors.New("sentinel")
	if err := c.Run(func(p *simnet.Proc) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRestartPeerRejoins(t *testing.T) {
	c := New(Options{Seed: 3, NumPeers: 3})
	err := c.Run(func(p *simnet.Proc) error {
		name := c.PeerNodes[0].Name()
		c.PeerNodes[0].Crash()
		p.Sleep(10 * time.Millisecond)
		if err := c.RestartPeer(p, name); err != nil {
			return err
		}
		if !c.PeerNodes[0].Alive() {
			t.Error("peer node not alive after restart")
		}
		if err := c.RestartPeer(p, "nope"); err == nil {
			t.Error("unknown peer restart succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A live peer cut off for longer than the session timeout loses its
// registration with its session. Once the partition heals, the controller
// client that created the registration re-creates it — with what the peer
// lends now, not at boot — and the peer takes allocations again.
func TestIsolatedPeerRejoinsRegistry(t *testing.T) {
	c := New(Options{Seed: 7, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		net, cfg := c.Sim.Net(), c.Controller.Config()
		peer0, name := c.PeerNodes[0], c.PeerNodes[0].Name()
		if _, err := wire.Call[peer.SetupResp](p, net, c.ClientNode, peer.Addr(name),
			peer.SetupReq{App: "other", File: "f", Size: 1 << 20, Epoch: 1}); err != nil {
			return err
		}
		net.Isolate(peer0)
		p.Sleep(2 * time.Second)
		observer := controller.NewClient(c.Controller, c.ClientNode, "observer", 0)
		if listed, err := observer.ListPeers(p); err != nil || len(listed) != 3 {
			t.Fatalf("%d peers listed while %s is cut off (%v), want 3", len(listed), name, err)
		}
		net.Unisolate(peer0)
		p.Sleep(cfg.SessionTimeout / 2) // two keep-alives: the controller renews every SessionTimeout/4
		info, found, err := observer.GetPeer(p, name)
		if err != nil || !found || info.AvailMem != c.Peers[name].Avail() {
			t.Fatalf("%s after the heal: %+v (found %v, %v), want it listed with the %d bytes it lends now",
				name, info, found, err, c.Peers[name].Avail())
		}
		// With another peer gone, a mirror log needs all three that are left.
		c.PeerNodes[1].Crash()
		p.Sleep(cfg.SessionTimeout * 5 / 3) // expiry and two scans, one per SessionTimeout/3
		fs, err := c.NewFS(p, "app", 0)
		if err != nil {
			return err
		}
		nf, err := fs.OpenFile(p, "log", core.O_NCL|core.O_CREATE, 1<<20)
		if err != nil {
			return err
		}
		if live := nf.(interface{ Log() *ncl.Log }).Log().LivePeers(); len(live) != 3 || !slices.Contains(live, name) {
			t.Errorf("log members %v, want three with %s among them", live, name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New(Options{Seed: 4})
	if len(c.PeerNodes) != 4 {
		t.Fatalf("default peers = %d", len(c.PeerNodes))
	}
	if c.Sim.Net().Latency(c.AppNode, c.ClientNode) != 5*time.Microsecond {
		t.Fatalf("default latency = %v", c.Sim.Net().Latency(c.AppNode, c.ClientNode))
	}
	if c.Profile == nil || c.Profile.Name != model.Baseline().Name {
		t.Fatalf("nil Options.Profile should resolve to the baseline, got %+v", c.Profile)
	}
}

func TestProfileOverridePlumbing(t *testing.T) {
	prof := model.CX6RoCE100()
	prof.DFS.SyncFixed = 1750 * time.Microsecond
	prof.NCL.Replication = "mirror:2"
	prof.NetLatency = 9 * time.Microsecond
	prof.Controller.SessionTimeout = 900 * time.Millisecond
	prof.Peer.PublishInterval = 70 * time.Millisecond
	c := New(Options{Seed: 5, Profile: prof})
	// The fabric, dfs and network must be built from the custom profile,
	// not the baseline.
	if got := c.Fabric.Params().WRBase; got != prof.RDMA.WRBase {
		t.Errorf("fabric WRBase = %v, want %v", got, prof.RDMA.WRBase)
	}
	if got := c.DFS.Params().SyncFixed; got != 1750*time.Microsecond {
		t.Errorf("dfs SyncFixed = %v, want the override", got)
	}
	if got := c.Sim.Net().Latency(c.AppNode, c.ClientNode); got != 9*time.Microsecond {
		t.Errorf("net latency = %v, want the profile's 9us", got)
	}
	if got := c.Controller.Config().SessionTimeout; got != 900*time.Millisecond {
		t.Errorf("controller session timeout = %v, want the profile's 900ms", got)
	}
	if got := c.FSOptions("app", 0).NCL; got != prof.NCL {
		t.Errorf("FSOptions NCL = %+v, want the profile's", got)
	}
	if c.peerCfg != prof.Peer {
		t.Errorf("peer config = %+v, want the profile's", c.peerCfg)
	}
}

// A profile whose replication spec does not parse is an error of the mount,
// and a zero ncl config is the paper's: mirror f=1 over 64 MiB.
func TestBadPolicyIsNewFSError(t *testing.T) {
	prof := model.Baseline()
	prof.NCL.Replication = "raid5"
	c := New(Options{Seed: 7, Profile: prof})
	err := c.Run(func(p *simnet.Proc) error {
		if _, err := c.NewFS(p, "app", 0); err == nil || !strings.Contains(err.Error(), "raid5") {
			t.Errorf("NewFS under replication %q: %v, want an error naming it", prof.NCL.Replication, err)
		}
		c.Profile.NCL.Replication, c.Profile.NCL.DefaultRegionSize = "", 0
		fs, err := c.NewFS(p, "app", 0)
		if err != nil {
			return err
		}
		f, err := fs.OpenFile(p, "log", core.O_NCL|core.O_CREATE, 0)
		if err != nil {
			return err
		}
		lg := f.(interface{ Log() *ncl.Log }).Log()
		if lg.Policy().String() != "mirror" || lg.Capacity() != 64<<20 {
			t.Errorf("zero config opened %s over %d bytes, want mirror over 64 MiB", lg.Policy(), lg.Capacity())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExplicitOverridesBeatProfile(t *testing.T) {
	prof := model.Baseline()
	dfsParams := prof.DFS
	dfsParams.SyncFixed = 42 * time.Microsecond
	c := New(Options{
		Seed:      6,
		Profile:   prof,
		DFSParams: &dfsParams,
		PeerMem:   64 << 20,
	})
	if got := c.DFS.Params().SyncFixed; got != 42*time.Microsecond {
		t.Errorf("DFSParams override lost: %v", got)
	}
	if c.peerCfg.LendableMem != 64<<20 {
		t.Errorf("PeerMem override lost: %v", c.peerCfg.LendableMem)
	}
}
