// Replication-policy model: an explicit-state checker for the ncl policy
// seam (internal/ncl/policy.go), generic over the policy spec. One
// application broadcasts writes to a peer group; each peer's deliveries are
// FIFO (the RDMA SQ guarantee holds per QP even for the unordered quorum
// policy — only cross-peer ordering differs), so a peer's replica is always
// a prefix of the write stream. The policy fixes the group shape and the
// two numbers that matter:
//
//   - AckNeed: how many peers must store a write before it is acknowledged
//     (mirror/quorum: F+1 of 2F+1; ec: all K+M — a stripe with any cell
//     unwritten is not yet reconstructible from arbitrary K survivors).
//   - What recovery needs: mirror/quorum read an adversarially chosen
//     MinAlive-subset of the live peers and take the longest prefix; ec
//     needs K live cells of a stripe to reconstruct it.
//
// The checked invariant is acked-write durability under an eager-recovery
// adversary: at every reachable state, every acknowledged write must be
// recoverable by the worst read quorum the policy permits. Acknowledgement
// is eager (latched the instant enough peers hold the write) — if any
// schedule could have externalized the ack, the checker demands durability
// from then on.
//
// Two seeded bugs validate the checker: ReplMutLostStripe acks an ec write
// one cell early, ReplMutSplitBrainAck acks a quorum write at F (a
// minority). Both must produce counterexample traces.
package modelcheck

import (
	"fmt"

	"splitft/internal/ncl"
)

// ReplMutation selects a seeded replication-policy bug.
type ReplMutation int

const (
	// ReplMutNone checks the correct ack rule for the given policy.
	ReplMutNone ReplMutation = iota
	// ReplMutLostStripe acknowledges an ec write when K+M-1 cells are
	// stored. The missing cell means M peer failures can leave only K-1
	// cells of an acked stripe — reconstruction is impossible.
	ReplMutLostStripe
	// ReplMutSplitBrainAck acknowledges a mirror/quorum write at F holders
	// (a minority). An F+1 read quorum drawn from the other F+1 peers then
	// misses the write entirely.
	ReplMutSplitBrainAck
)

func (m ReplMutation) String() string {
	switch m {
	case ReplMutNone:
		return "none"
	case ReplMutLostStripe:
		return "lost-stripe-ack"
	default:
		return "split-brain-ack"
	}
}

// ReplConfig bounds the exploration of one policy.
type ReplConfig struct {
	MaxWrites  int
	MaxCrashes int // peer-crash budget; Tolerates() for the correct protocol
	Mutation   ReplMutation
}

// DefaultReplConfig explores three writes with the policy's full failure
// budget — the exact boundary the ack rule is designed for.
func DefaultReplConfig(spec ncl.PolicySpec) ReplConfig {
	return ReplConfig{MaxWrites: 3, MaxCrashes: spec.Tolerates()}
}

// rpeer is one log peer. Deliveries are FIFO per peer, so the replica is
// fully described by prefix lengths: writes [0, Stored) are resident,
// writes [Stored, Sent) are in flight toward it.
type rpeer struct {
	Alive  bool
	Stored int8
	Sent   int8
}

type rstate struct {
	Peers   []rpeer
	Writes  int8 // writes the application has issued
	Acked   int8 // acknowledged prefix (latched, never shrinks)
	Crashes int8
}

func (s *rstate) clone() *rstate {
	c := *s
	c.Peers = append([]rpeer(nil), s.Peers...)
	return &c
}

func (s *rstate) appendKey(b []byte) []byte {
	b = append(b, byte(s.Writes), byte(s.Acked), byte(s.Crashes), byte(len(s.Peers)))
	for _, pr := range s.Peers {
		b = append(b, bit(pr.Alive), byte(pr.Stored), byte(pr.Sent))
	}
	return b
}

// ackRule returns how many stored copies acknowledge a write under the
// (possibly mutated) policy.
func ackRule(spec ncl.PolicySpec, mut ReplMutation) int {
	switch spec.Kind {
	case ncl.PolicyEC:
		if mut == ReplMutLostStripe {
			return spec.K + spec.M - 1
		}
		return spec.K + spec.M
	default:
		if mut == ReplMutSplitBrainAck {
			return spec.F
		}
		return spec.F + 1
	}
}

// latchAcks advances the acked prefix: write w is acknowledged once ackNeed
// live peers hold it. Acks latch — a later crash cannot un-acknowledge.
func (s *rstate) latchAcks(ackNeed int) {
	for s.Acked < s.Writes {
		holders := 0
		for _, pr := range s.Peers {
			if pr.Alive && pr.Stored > s.Acked {
				holders++
			}
		}
		if holders < ackNeed {
			break
		}
		s.Acked++
	}
}

// durabilityViolation returns the first acked write the policy's worst-case
// recovery cannot reproduce, or -1.
//
// mirror/quorum: recovery reads any MinAlive = F+1 subset of the live peers
// and adopts the longest prefix among them. The adversary picks the subset,
// so write w is lost iff F+1 live peers all have Stored <= w — or fewer
// than F+1 peers are alive at all, in which case no read quorum exists and
// the acked write is gone for good (dead peers' regions are wiped).
//
// ec: reconstruction of write w's stripe needs K of its cells on live
// peers; fewer than K live holders is loss regardless of read-set choice.
func (s *rstate) durabilityViolation(spec ncl.PolicySpec) int {
	for w := int8(0); w < s.Acked; w++ {
		holders, lacking := 0, 0
		for _, pr := range s.Peers {
			if !pr.Alive {
				continue
			}
			if pr.Stored > w {
				holders++
			} else {
				lacking++
			}
		}
		if spec.Kind == ncl.PolicyEC {
			if holders < spec.K {
				return int(w)
			}
		} else if holders+lacking < spec.F+1 || lacking >= spec.F+1 {
			return int(w)
		}
	}
	return -1
}

// CheckReplication explores the bounded write/crash state space of one
// replication policy breadth-first and returns the first acked-write
// durability violation, or nil.
func CheckReplication(spec ncl.PolicySpec, cfg ReplConfig) Result {
	ackNeed := ackRule(spec, cfg.Mutation)
	init := &rstate{Peers: make([]rpeer, spec.Slots())}
	for i := range init.Peers {
		init.Peers[i].Alive = true
	}
	return explore(init, (*rstate).appendKey, func(s *rstate, emit func(string, *rstate, string)) {
		// expand latches acks on a successor and checks the invariant on it.
		expand := func(action string, c *rstate) {
			c.latchAcks(ackNeed)
			violation := ""
			if w := c.durabilityViolation(spec); w >= 0 {
				violation = fmt.Sprintf("%s: acked write %d unrecoverable under the worst %s read set", spec, w, spec)
			}
			emit(action, c, violation)
		}

		// 1. The application issues the next write: one WR enqueued per
		//    live member (dead members get nothing — their QP is torn down).
		if s.Writes < int8(cfg.MaxWrites) {
			c := s.clone()
			c.Writes++
			for i := range c.Peers {
				if c.Peers[i].Alive {
					c.Peers[i].Sent = c.Writes
				}
			}
			expand(fmt.Sprintf("write(%d)", s.Writes), c)
		}

		// 2. A peer's queue head lands: its stored prefix extends by one.
		for i, pr := range s.Peers {
			if !pr.Alive || pr.Stored >= pr.Sent {
				continue
			}
			c := s.clone()
			c.Peers[i].Stored++
			expand(fmt.Sprintf("deliver(w%d,p%d)", pr.Stored, i), c)
		}

		// 3. A peer crashes: its lent region is gone, in-flight WRs die
		//    with the QP.
		if s.Crashes < int8(cfg.MaxCrashes) {
			for i := range s.Peers {
				if !s.Peers[i].Alive {
					continue
				}
				c := s.clone()
				c.Peers[i] = rpeer{}
				c.Crashes++
				expand(fmt.Sprintf("crash(p%d)", i), c)
			}
		}

	})
}
