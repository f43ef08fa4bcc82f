package harness

import (
	"fmt"
	"math/rand"
	"time"

	"splitft/internal/simnet"
)

// Injector drives adversarial failure schedules against a Cluster on the
// virtual clock: domain-correlated crashes, gray (slow-but-alive) peers and
// storage nodes, controller isolation mid-replacement, crash storms, and
// lossy links. Every decision draws from a seeded RNG, so a schedule is a
// pure function of (cluster seed, injector seed, scenario) and replays
// byte-identically. Each injected event is appended to Events and handed to
// OnEvent, which is where the chaos runner hangs its durability check —
// "verify the fsynced prefix after every event" is literally this hook.
type Injector struct {
	C   *Cluster
	rng *rand.Rand

	// Events is the schedule actually executed, with virtual timestamps.
	Events []ChaosEvent
	// OnEvent, when non-nil, runs synchronously after every injected event.
	// An error aborts the scenario.
	OnEvent func(p *simnet.Proc, what string) error
}

// ChaosEvent is one executed fault event.
type ChaosEvent struct {
	At   time.Duration `json:"at"`
	What string        `json:"what"`
}

// ChaosScenarios lists every scenario Run accepts, in sweep order.
var ChaosScenarios = []string{
	"peer-crash", "rack", "gray-peer", "gray-chain", "ctrl-isolate", "storm", "flaky-link",
}

// NewInjector builds an injector with its own seeded RNG (independent of
// the simulation's, so adding a scenario never perturbs workload draws).
func NewInjector(c *Cluster, seed int64) *Injector {
	return &Injector{C: c, rng: rand.New(rand.NewSource(seed))}
}

func (in *Injector) event(p *simnet.Proc, format string, args ...any) error {
	what := fmt.Sprintf(format, args...)
	in.Events = append(in.Events, ChaosEvent{At: p.Now(), What: what})
	if in.OnEvent != nil {
		return in.OnEvent(p, what)
	}
	return nil
}

// pickPeer returns a random peer index.
func (in *Injector) pickPeer() int { return in.rng.Intn(len(in.C.PeerNodes)) }

// crashPeer crashes one peer node.
func (in *Injector) crashPeer(p *simnet.Proc, i int) error {
	in.C.PeerNodes[i].Crash()
	return in.event(p, "crash %s", in.C.PeerNodes[i].Name())
}

// restartPeer revives one peer node and its daemon.
func (in *Injector) restartPeer(p *simnet.Proc, i int) error {
	name := in.C.PeerNodes[i].Name()
	if err := in.C.RestartPeer(p, name); err != nil {
		return err
	}
	return in.event(p, "restart %s", name)
}

// CrashDomain crashes every peer in one failure domain — the correlated
// rack failure. It returns the crashed indices.
func (in *Injector) CrashDomain(p *simnet.Proc, dom string) ([]int, error) {
	var down []int
	for i := range in.C.PeerNodes {
		if in.C.peerCfgFor(i).Domain == dom {
			in.C.PeerNodes[i].Crash()
			down = append(down, i)
		}
	}
	return down, in.event(p, "crash domain %s (%d peers)", dom, len(down))
}

// Run executes one named scenario (see ChaosScenarios) and leaves the
// cluster healthy: every crashed node restarted, every link fault cleared.
func (in *Injector) Run(p *simnet.Proc, scenario string) error {
	net := in.C.Sim.Net()
	var err error
	step := func(e error) {
		if err == nil {
			err = e
		}
	}
	switch scenario {
	case "peer-crash":
		// The baseline single failure: one peer dies mid-load, comes back.
		p.Sleep(50 * time.Millisecond)
		i := in.pickPeer()
		step(in.crashPeer(p, i))
		p.Sleep(300 * time.Millisecond)
		step(in.restartPeer(p, i))

	case "rack":
		// Correlated failure: every peer sharing a failure domain dies at
		// the same instant — the regime domain-spread placement exists for.
		p.Sleep(50 * time.Millisecond)
		dom := in.C.peerCfgFor(in.pickPeer()).Domain
		down, e := in.CrashDomain(p, dom)
		step(e)
		p.Sleep(400 * time.Millisecond)
		for _, i := range down {
			step(in.restartPeer(p, i))
		}

	case "gray-peer":
		// Slow-but-alive log peer: every RDMA WR toward it pays 2 ms extra,
		// so its completions lag thousands of sequence numbers behind while
		// the peer keeps answering RPCs — the failure detectors see nothing.
		p.Sleep(50 * time.Millisecond)
		i := in.pickPeer()
		pn := in.C.PeerNodes[i]
		net.SetLinkLatency(in.C.AppNode, pn, 2*time.Millisecond)
		step(in.event(p, "gray %s (+2ms app->peer)", pn.Name()))
		p.Sleep(300 * time.Millisecond)
		net.SetLinkLatency(in.C.AppNode, pn, 0)
		step(in.event(p, "ungray %s", pn.Name()))

	case "gray-chain":
		// Slow-but-alive storage node: incoming hops exceed the chain's
		// depth-scaled timeout, so healthy-looking appends blame it and
		// chains re-form around it until the dfs client's blame expires
		// (simnet.BlameWindow).
		if len(in.C.StorageNodes) == 0 {
			return fmt.Errorf("harness: gray-chain needs an extent plane")
		}
		p.Sleep(50 * time.Millisecond)
		sn := in.C.StorageNodes[in.rng.Intn(len(in.C.StorageNodes))]
		grayIn := func(d time.Duration) {
			net.SetLinkLatency(in.C.AppNode, sn, d)
			for _, other := range in.C.StorageNodes {
				if other != sn {
					net.SetLinkLatency(other, sn, d)
				}
			}
		}
		grayIn(500 * time.Millisecond)
		step(in.event(p, "gray %s (+500ms inbound)", sn.Name()))
		p.Sleep(400 * time.Millisecond)
		grayIn(0)
		step(in.event(p, "ungray %s", sn.Name()))

	case "ctrl-isolate":
		// A peer dies (forcing a replacement) and the controller leader is
		// isolated mid-replacement: the ap-map CAS must stall until the
		// ensemble re-elects or the partition heals, never ack a torn map.
		p.Sleep(50 * time.Millisecond)
		i := in.pickPeer()
		step(in.crashPeer(p, i))
		p.Sleep(20 * time.Millisecond)
		if leader := in.C.Controller.LeaderNode(); leader != nil {
			net.Isolate(leader)
			step(in.event(p, "isolate controller leader %s", leader.Name()))
			p.Sleep(400 * time.Millisecond)
			net.Unisolate(leader)
			step(in.event(p, "reconnect %s", leader.Name()))
		}
		p.Sleep(200 * time.Millisecond)
		step(in.restartPeer(p, i))

	case "storm":
		// Crash storm: overlapping crashes and restarts in quick succession,
		// so recovery and repair always run against further failures.
		p.Sleep(50 * time.Millisecond)
		a := in.pickPeer()
		b := (a + 1) % len(in.C.PeerNodes)
		c := (a + 2) % len(in.C.PeerNodes)
		step(in.crashPeer(p, a))
		p.Sleep(80 * time.Millisecond)
		step(in.crashPeer(p, b))
		p.Sleep(80 * time.Millisecond)
		step(in.restartPeer(p, a))
		p.Sleep(80 * time.Millisecond)
		step(in.crashPeer(p, c))
		p.Sleep(80 * time.Millisecond)
		step(in.restartPeer(p, b))
		p.Sleep(80 * time.Millisecond)
		step(in.restartPeer(p, c))

	case "flaky-link":
		// Lossy control plane: 15% of RPCs between the app and the peers/
		// controller vanish, both directions. The RDMA data plane is not
		// lossy (its transport retries model loss as latency), so this
		// stresses setup, lookup and lease traffic.
		p.Sleep(50 * time.Millisecond)
		lossy := func(rate float64) {
			for _, pn := range in.C.PeerNodes {
				net.SetLoss(in.C.AppNode, pn, rate)
				net.SetLoss(pn, in.C.AppNode, rate)
			}
			for _, cn := range in.C.Controller.Nodes() {
				net.SetLoss(in.C.AppNode, cn, rate)
				net.SetLoss(cn, in.C.AppNode, rate)
			}
		}
		lossy(0.15)
		step(in.event(p, "loss 15%% on app<->peer and app<->controller links"))
		p.Sleep(300 * time.Millisecond)
		lossy(0)
		step(in.event(p, "links clean"))

	default:
		return fmt.Errorf("harness: unknown chaos scenario %q", scenario)
	}
	if err != nil {
		return err
	}
	// Catch-all: a scenario must not leak faults into the next one.
	net.HealAll()
	p.Sleep(100 * time.Millisecond)
	return in.event(p, "heal-all")
}
