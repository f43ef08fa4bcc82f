package raft

import (
	"errors"
	"slices"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// Client submits commands to a Raft group from some node, following leader
// hints and retrying around elections and failures. The hint is the node's,
// not the client's: every Client on one node sends its next call to the
// leader any of them last found (DESIGN.md §15).
type Client struct {
	cluster *Cluster
	node    *simnet.Node
	// deadline bounds one Propose end to end: DefaultDeadline, lowered
	// only by raft's own tests.
	deadline time.Duration
	// CallTimeout bounds each RPC attempt (default 500ms). Lower it when
	// the caller must fail over quickly, e.g. session keep-alives racing an
	// expiry clock.
	CallTimeout time.Duration
}

// DefaultDeadline is how long one Propose may take end to end, retries
// included.
const DefaultDeadline = 3 * time.Second

// NewClient creates a client that calls from node.
func NewClient(cluster *Cluster, node *simnet.Node) *Client {
	return &Client{cluster: cluster, node: node, deadline: DefaultDeadline, CallTimeout: 500 * time.Millisecond}
}

// Propose submits cmd, blocking until the state machine applied it on the
// leader (or the leader answered it locally, LocalStateMachine), and returns
// the result. The command travels unwrapped: any
// message whose code is outside raft's own range is treated by replicas as
// a proposal. Commands may be re-submitted after ambiguous failures
// (timeouts), so state-machine operations should be idempotent or
// versioned, as the controller's are.
func (c *Client) Propose(p *simnet.Proc, cmd wire.Msg) (wire.Msg, error) {
	var sp *trace.Span
	if p.Tracing() {
		sp = p.StartSpan("raft", "propose")
		defer p.EndSpan(sp)
	}
	net := c.cluster.sim.Net()
	deadline := p.Now() + c.deadline
	var lastErr error = ErrTimeout
	key := hintKey{c.node.Name(), c.node.Incarnation()}
	skip := -1 // the replica whose attempt last timed out
	for p.Now() < deadline {
		at := c.cluster.hints[key]
		resp, err := net.CallTimeout(p, c.node, c.cluster.Addr(c.cluster.ids[at]), cmd, c.CallTimeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var nle NotLeaderError
		if errors.As(err, &nle) && nle.Hint != "" {
			c.cluster.hints[key] = max(slices.Index(c.cluster.ids, nle.Hint), 0)
			continue
		}
		if errors.Is(err, simnet.ErrTimeout) {
			skip = at
		}
		// Move past the replica that failed, and past the one that last timed
		// out (a follower that names no leader has stopped hearing from it),
		// unless another client on this node has moved the hint already: two
		// clients timing out on one replica together advance it once.
		if c.cluster.hints[key] == at {
			next := (at + 1) % len(c.cluster.ids)
			if next == skip {
				next = (next + 1) % len(c.cluster.ids)
			}
			c.cluster.hints[key] = next
		}
		// A timed-out attempt has waited its CallTimeout already. One
		// answered at once (no leader known, ErrBusy) waits the time a new
		// leader takes to announce itself.
		if !errors.Is(err, simnet.ErrTimeout) {
			p.Sleep(heartbeatInterval)
		}
	}
	return wire.Msg{}, lastErr
}

// hintKey names one incarnation of a client node: the key of its believed
// leader, an index into Cluster.ids, in Cluster.hints. A restarted node
// starts from the first replica, as a new client does.
type hintKey struct {
	node string
	inc  int
}
