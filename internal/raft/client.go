package raft

import (
	"errors"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/trace"
	"splitft/internal/wire"
)

// Client submits commands to a Raft group from some node, following leader
// hints and retrying around elections and failures.
type Client struct {
	cluster *Cluster
	node    *simnet.Node
	hint    int // index into cluster.ids of the believed leader
	// Deadline bounds one Propose end to end (default DefaultDeadline).
	Deadline time.Duration
	// CallTimeout bounds each RPC attempt (default 500ms). Lower it when
	// the caller must fail over quickly, e.g. session keep-alives racing an
	// expiry clock.
	CallTimeout time.Duration
}

// DefaultDeadline is a new Client's Deadline: how long one Propose may
// take end to end, retries included.
const DefaultDeadline = 3 * time.Second

// NewClient creates a client that calls from node.
func NewClient(cluster *Cluster, node *simnet.Node) *Client {
	return &Client{cluster: cluster, node: node, Deadline: DefaultDeadline, CallTimeout: 500 * time.Millisecond}
}

// Propose submits cmd, blocking until the state machine applied it on the
// leader, and returns the Apply result. The command travels unwrapped: any
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
	deadline := p.Now() + c.Deadline
	var lastErr error = ErrTimeout
	for p.Now() < deadline {
		id := c.cluster.ids[c.hint%len(c.cluster.ids)]
		resp, err := net.CallTimeout(p, c.node, c.cluster.Addr(id), cmd, c.CallTimeout)
		switch {
		case err == nil:
			return resp, nil
		case errors.Is(err, ErrNotLeader):
			var nle NotLeaderError
			if errors.As(err, &nle) && nle.Hint != "" {
				c.hint = c.indexOf(nle.Hint)
			} else {
				c.hint++
				p.Sleep(10 * time.Millisecond) // election likely in progress
			}
			lastErr = err
		default:
			c.hint++
			p.Sleep(20 * time.Millisecond)
			lastErr = err
		}
	}
	return wire.Msg{}, lastErr
}

func (c *Client) indexOf(id string) int {
	for i, x := range c.cluster.ids {
		if x == id {
			return i
		}
	}
	return 0
}
