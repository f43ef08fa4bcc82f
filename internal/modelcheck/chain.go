// Chain-append model: an explicit-state checker for the dfs extent plane's
// chain replication (internal/dfs/extent.go). One client pumps frames down
// a chain of storage nodes; each node stores a frame in its in-memory
// append log before forwarding it, and the ack rides back up only after
// the tail has stored. A node crash wipes its log; the client re-forms the
// remainder of the stream onto a fresh chain of survivors.
//
// The checked invariant is acked-frame durability: every frame whose ack
// reached the client is resident on at least one alive storage node, at
// every reachable state. With a crash budget below the chain length the
// correct protocol satisfies it — an ack means all chain members stored
// the frame, so wiping fewer than all of them leaves a holder. The seeded
// bugs break the store-before-ack ordering and must be flagged.
package modelcheck

import (
	"fmt"
	"sort"
)

// ChainMutation selects a seeded chain-protocol bug.
type ChainMutation int

const (
	// ChainMutNone checks the correct protocol: the ack is generated at
	// the tail, after every chain member has stored the frame.
	ChainMutNone ChainMutation = iota
	// ChainMutAckEarly has the head acknowledge a frame as soon as it
	// stores it, before the downstream members hold a copy — a head crash
	// then strands an acked frame with no surviving replica.
	ChainMutAckEarly
	// ChainMutAckOnSend has the client count a frame acknowledged the
	// moment it is sent, while the only copy is still in flight.
	ChainMutAckOnSend
)

func (m ChainMutation) String() string {
	switch m {
	case ChainMutNone:
		return "none"
	case ChainMutAckEarly:
		return "ack-at-head"
	default:
		return "ack-on-send"
	}
}

// ChainConfig bounds the chain exploration.
type ChainConfig struct {
	ChainLen   int // nodes per chain
	Spares     int // extra nodes available for re-forms
	MaxFrames  int // frames the client pumps
	MaxCrashes int // storage-node crash budget (keep < ChainLen)
	MaxReforms int
	Mutation   ChainMutation
}

// DefaultChainConfig explores a 3-node chain with one spare, two frames,
// and a two-crash budget — small enough to exhaust, large enough that a
// crash can land at every protocol stage.
func DefaultChainConfig() ChainConfig {
	return ChainConfig{ChainLen: 3, Spares: 1, MaxFrames: 2, MaxCrashes: 2, MaxReforms: 1}
}

// cnode is one storage node: alive or wiped, with a bitmask of the frames
// its in-memory append log holds.
type cnode struct {
	Alive  bool
	Stored uint16
}

// cmsg is one frame in flight toward position Pos of the current chain.
type cmsg struct {
	Frame int8
	Pos   int8
}

type cstate struct {
	Nodes   []cnode
	Chain   []int8 // node indices in forwarding order
	Msgs    []cmsg
	Sent    int8   // frames handed to the pump so far
	Acked   uint16 // frames whose ack reached the client
	Crashes int8
	Reforms int8
}

func (s *cstate) clone() *cstate {
	c := *s
	c.Nodes = append([]cnode(nil), s.Nodes...)
	c.Chain = append([]int8(nil), s.Chain...)
	c.Msgs = append([]cmsg(nil), s.Msgs...)
	return &c
}

func (s *cstate) appendKey(b []byte) []byte {
	b = append(b, byte(s.Sent), byte(s.Acked), byte(s.Acked>>8), byte(s.Crashes), byte(s.Reforms),
		byte(len(s.Nodes)), byte(len(s.Chain)), byte(len(s.Msgs)))
	for _, n := range s.Nodes {
		b = append(b, bit(n.Alive), byte(n.Stored), byte(n.Stored>>8))
	}
	for _, i := range s.Chain {
		b = append(b, byte(i))
	}
	for _, m := range s.Msgs {
		b = append(b, byte(m.Frame), byte(m.Pos))
	}
	return b
}

// canon sorts the in-flight set so semantically equal states share a key.
func (s *cstate) canon() {
	sort.Slice(s.Msgs, func(i, j int) bool {
		if s.Msgs[i].Frame != s.Msgs[j].Frame {
			return s.Msgs[i].Frame < s.Msgs[j].Frame
		}
		return s.Msgs[i].Pos < s.Msgs[j].Pos
	})
}

// durabilityViolation returns the first acked frame no alive node holds,
// or -1. (In-flight copies don't count: once the ack returns, the client
// may discard its buffer, so durability must come from the nodes.)
func (s *cstate) durabilityViolation() int {
	for f := 0; f < 16; f++ {
		if s.Acked&(1<<f) == 0 {
			continue
		}
		held := false
		for _, n := range s.Nodes {
			if n.Alive && n.Stored&(1<<f) != 0 {
				held = true
				break
			}
		}
		if !held {
			return f
		}
	}
	return -1
}

// chainDead reports whether the current chain has a dead member (the
// condition under which the client's pump fails and a re-form fires).
func (s *cstate) chainDead() bool {
	for _, i := range s.Chain {
		if !s.Nodes[i].Alive {
			return true
		}
	}
	return false
}

// CheckChain explores the bounded chain-append state space breadth-first
// and returns the first durability violation, or nil.
func CheckChain(cfg ChainConfig) Result {
	n := cfg.ChainLen + cfg.Spares
	init := &cstate{Nodes: make([]cnode, n), Chain: make([]int8, cfg.ChainLen)}
	for i := range init.Nodes {
		init.Nodes[i].Alive = true
	}
	for i := range init.Chain {
		init.Chain[i] = int8(i)
	}
	return explore(init, (*cstate).appendKey, func(s *cstate, emit func(string, *cstate, string)) {
		// expand canonicalizes a successor and checks the invariant on it.
		expand := func(action string, c *cstate) {
			c.canon()
			violation := ""
			if f := c.durabilityViolation(); f >= 0 {
				violation = fmt.Sprintf("acked frame %d held by no alive node", f)
			}
			emit(action, c, violation)
		}

		// 1. Client pumps the next frame to the chain head.
		if s.Sent < int8(cfg.MaxFrames) {
			c := s.clone()
			f := c.Sent
			c.Sent++
			c.Msgs = append(c.Msgs, cmsg{Frame: f, Pos: 0})
			if cfg.Mutation == ChainMutAckOnSend {
				c.Acked |= 1 << f
			}
			expand(fmt.Sprintf("send(%d)", f), c)
		}

		// 2. Deliver an in-flight frame to its chain position. A dead
		//    receiver drops it (the sender's RPC times out; the client's
		//    re-form resends). The tail's store generates the ack —
		//    eagerly, the strongest adversary: if any schedule could have
		//    returned the sync, the checker demands durability then.
		for i, m := range s.Msgs {
			c := s.clone()
			c.Msgs = append(c.Msgs[:i], c.Msgs[i+1:]...)
			node := &c.Nodes[c.Chain[m.Pos]]
			if node.Alive {
				node.Stored |= 1 << m.Frame
				if int(m.Pos) == len(c.Chain)-1 || cfg.Mutation == ChainMutAckEarly && m.Pos == 0 {
					c.Acked |= 1 << m.Frame
				}
				if int(m.Pos) < len(c.Chain)-1 {
					c.Msgs = append(c.Msgs, cmsg{Frame: m.Frame, Pos: m.Pos + 1})
				}
			}
			expand(fmt.Sprintf("deliver(f%d,pos%d)", m.Frame, m.Pos), c)
		}

		// 3. Storage node crash: the in-memory append log is wiped.
		if s.Crashes < int8(cfg.MaxCrashes) {
			for i := range s.Nodes {
				if !s.Nodes[i].Alive {
					continue
				}
				c := s.clone()
				c.Nodes[i] = cnode{}
				c.Crashes++
				expand(fmt.Sprintf("crash(sn%d)", i), c)
			}
		}

		// 4. Re-form: the client detects the dead member, excludes it, and
		//    re-pumps every unacked frame onto a fresh all-alive chain.
		//    Acked frames stay where they are — the manifest still names
		//    the old chain's survivors (sealed at the acked watermark).
		if s.Reforms < int8(cfg.MaxReforms) && s.chainDead() {
			var alive []int8
			for i := range s.Nodes {
				if s.Nodes[i].Alive {
					alive = append(alive, int8(i))
				}
			}
			if len(alive) >= cfg.ChainLen {
				c := s.clone()
				c.Chain = alive[:cfg.ChainLen]
				c.Msgs = nil // in-flight frames died with the timeout
				c.Reforms++
				for f := int8(0); f < c.Sent; f++ {
					if c.Acked&(1<<f) == 0 {
						c.Msgs = append(c.Msgs, cmsg{Frame: f, Pos: 0})
					}
				}
				expand("reform", c)
			}
		}

	})
}
