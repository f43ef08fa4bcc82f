// Package harness assembles the full SplitFT deployment used by tests,
// benchmarks and examples: the simulated datacenter of §5's testbed — a
// three-node controller ensemble, a CephFS-like dfs cluster, an RDMA
// fabric, a pool of log peers, an application-server node, and a client
// node — all on one deterministic simulation.
package harness

import (
	"fmt"
	"time"

	"splitft/internal/controller"
	"splitft/internal/core"
	"splitft/internal/dfs"
	"splitft/internal/model"
	"splitft/internal/peer"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// Options configures a testbed.
type Options struct {
	Seed     int64
	NumPeers int
	// Trace, when non-nil, is attached to the simulation so every layer
	// records spans into it (see internal/trace). Nil disables tracing.
	Trace *trace.Collector
	// Profile is the hardware cost model for the whole testbed (fabric,
	// dfs, controller, peers, net latency). Nil means model.Baseline().
	// To vary one of its constants, pass a mutated copy.
	Profile *model.Profile
	// PeerMem is each peer's lendable memory (default from profile: 1 GiB).
	PeerMem int64
	// AppCores is the application server's core count (default 10, the
	// paper's E5-2640v4).
	AppCores int
	// DFSParams overrides the profile's dfs cost model.
	DFSParams *dfs.Params
	// WithLocalFS adds a local-ext4 cluster (Fig 11b baseline).
	WithLocalFS bool
	// PeerDomainCount > 0 assigns each peer a failure domain, round-robin
	// across that many domains ("dom0".."dom<n-1>"), so placement spreads
	// a log's group across domains. 0 leaves domains unset (the default —
	// placement and traces are unchanged).
	PeerDomainCount int
}

// Cluster is a running testbed.
type Cluster struct {
	Sim        *simnet.Sim
	Controller *controller.Service
	Fabric     *rdma.Fabric
	DFS        *dfs.Cluster
	LocalFS    *dfs.Cluster
	AppNode    *simnet.Node
	ClientNode *simnet.Node
	// StorageNodes back the dfs extent plane (empty when the profile's
	// DFS.ExtentNodes is zero).
	StorageNodes []*simnet.Node
	PeerNodes    []*simnet.Node
	Peers        map[string]*peer.Peer
	// Profile is the resolved hardware cost model the testbed was built
	// with; application builders read their CPU costs from it.
	Profile *model.Profile
	// Seed is the simulation seed the testbed was built with; workload
	// drivers derive per-client generator seeds from it.
	Seed int64

	peerCfg     peer.Config
	domainCount int
}

// New builds the testbed (nodes and services that need no running procs).
// Call Run (or Boot from your own proc) to bring up peers.
func New(opts Options) *Cluster {
	if opts.NumPeers == 0 {
		opts.NumPeers = 4
	}
	if opts.AppCores == 0 {
		opts.AppCores = 10
	}
	prof := opts.Profile
	if prof == nil {
		prof = model.Baseline()
	}
	s := simnet.New(opts.Seed)
	if opts.Trace != nil {
		s.SetTracer(opts.Trace)
	}
	s.Net().SetDefaultLatency(prof.NetLatency)
	ctrlNodes := []*simnet.Node{s.NewNode("ctrl0"), s.NewNode("ctrl1"), s.NewNode("ctrl2")}
	dfsParams := prof.DFS
	if opts.DFSParams != nil {
		dfsParams = *opts.DFSParams
	}
	c := &Cluster{
		Sim:        s,
		Controller: controller.Start(s, ctrlNodes, prof.Controller),
		Fabric:     rdma.NewFabric(s, prof.RDMA),
		DFS:        dfs.NewCluster(s, "cephfs", dfsParams),
		AppNode:    s.NewNode("appserver"),
		ClientNode: s.NewNode("client"),
		Peers:      make(map[string]*peer.Peer),
		Profile:    prof,
		Seed:       opts.Seed,
	}
	if dfsParams.ExtentNodes > 0 {
		for i := 0; i < dfsParams.ExtentNodes; i++ {
			c.StorageNodes = append(c.StorageNodes, s.NewNode(fmt.Sprintf("cephfs-sn%d", i)))
		}
		// Extent metadata lives under /dfs/cephfs/ on the controller.
		// The per-mount client is sessionless — allocation and seals are not
		// ephemeral — so it adds no keep-alive traffic.
		ctrl := c.Controller
		c.DFS.EnableExtents(c.StorageNodes, func(n *simnet.Node) dfs.ExtentMeta {
			return controller.NewClient(ctrl, n, "dfs-extmeta", 0).ExtentMeta("cephfs")
		})
	}
	if opts.WithLocalFS {
		// The local-ext4 baseline never has an extent plane, whatever the
		// profile says about the disaggregated cluster.
		localParams := prof.LocalFS
		localParams.ExtentNodes = 0
		c.LocalFS = dfs.NewCluster(s, "local-ext4", localParams)
	}
	c.AppNode.SetCores(opts.AppCores)
	c.ClientNode.SetCores(16)
	c.peerCfg = prof.Peer
	if opts.PeerMem != 0 {
		c.peerCfg.LendableMem = opts.PeerMem
	}
	c.domainCount = opts.PeerDomainCount
	for i := 0; i < opts.NumPeers; i++ {
		c.PeerNodes = append(c.PeerNodes, s.NewNode(fmt.Sprintf("peer%d", i)))
	}
	return c
}

// peerCfgFor returns the daemon config for the i-th peer, assigning its
// failure domain when PeerDomainCount is set.
func (c *Cluster) peerCfgFor(i int) peer.Config {
	cfg := c.peerCfg
	if c.domainCount > 0 {
		cfg.Domain = fmt.Sprintf("dom%d", i%c.domainCount)
	}
	return cfg
}

// Boot starts the peer daemons. Call it from a proc before using NCL. The
// first peer's session rides the raft client through the controller's
// election, so Boot returns once a leader has registered every peer.
func (c *Cluster) Boot(p *simnet.Proc) error {
	for i, n := range c.PeerNodes {
		pr, err := peer.Start(p, c.Controller, c.Fabric, n, c.peerCfgFor(i))
		if err != nil {
			return fmt.Errorf("harness: start peer %s: %w", n.Name(), err)
		}
		c.Peers[n.Name()] = pr
	}
	return nil
}

// RestartPeer revives a crashed peer node and restarts its daemon.
func (c *Cluster) RestartPeer(p *simnet.Proc, name string) error {
	var node *simnet.Node
	idx := -1
	for i, n := range c.PeerNodes {
		if n.Name() == name {
			node, idx = n, i
			break
		}
	}
	if node == nil {
		return fmt.Errorf("harness: unknown peer %s", name)
	}
	node.Restart()
	pr, err := peer.Start(p, c.Controller, c.Fabric, node, c.peerCfgFor(idx))
	if err != nil {
		return err
	}
	c.Peers[name] = pr
	return nil
}

// Run boots the cluster and executes fn in a detached proc, stopping the
// simulation when fn returns. It returns the simulation error, if any.
func (c *Cluster) Run(fn func(p *simnet.Proc) error) error {
	var fnErr error
	c.Sim.Go("harness-main", func(p *simnet.Proc) {
		// Stop is deferred so the simulation halts promptly even if fn's
		// goroutine exits abnormally (e.g. t.Fatal inside a test proc).
		defer c.Sim.Stop()
		if err := c.Boot(p); err != nil {
			fnErr = err
			return
		}
		fnErr = fn(p)
	})
	if err := c.Sim.RunUntil(24 * time.Hour); err != nil {
		return err
	}
	return fnErr
}

// FSOptions builds core.FS options for an application on the app node. The
// ncl configuration (replication policy, region size, cost model) is the
// cluster profile's; a policy string that does not parse is core.NewFS's
// error.
func (c *Cluster) FSOptions(appID string, fencing int64) core.Options {
	return core.Options{
		Controller: c.Controller,
		Fabric:     c.Fabric,
		DFS:        c.DFS,
		Node:       c.AppNode,
		AppID:      appID,
		Fencing:    fencing,
		NCL:        c.Profile.NCL,
	}
}

// NewFS creates a SplitFT FS for appID on the application node.
func (c *Cluster) NewFS(p *simnet.Proc, appID string, fencing int64) (*core.FS, error) {
	return core.NewFS(p, c.FSOptions(appID, fencing))
}

// CrashApp crashes the application server; RestartApp revives the node
// (services must be re-created by the caller, as a restarted process would).
func (c *Cluster) CrashApp()   { c.AppNode.Crash() }
func (c *Cluster) RestartApp() { c.AppNode.Restart() }
