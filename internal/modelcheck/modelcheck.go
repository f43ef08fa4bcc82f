// Package modelcheck is an explicit-state model checker for NCL's
// replication and recovery protocols (§4.6). The paper reports exploring
// over four million states, asserting after each that every write returned
// as success is recovered in the order the writes completed, and showing
// that seeded bugs — writing the sequence number before the data, or
// updating the ap-map before catching up a new peer — are flagged.
//
// The model abstracts one ncl file with 2f+1 log peers. Writes are
// integers; each application write posts a data op followed by a header
// (sequence-number) op to every live member's send queue, and queues drain
// in order (the RDMA SQ guarantee). The checker enumerates all
// interleavings of posting, delivery, peer crashes/restarts, peer
// replacement, application crashes, and application recovery with an
// adversarial choice of read quorum — and asserts the §4.6 correctness
// condition at every recovery.
//
// Acknowledgement is eager (a write is considered acknowledged the instant
// a majority of current members holds it), which is the strongest adversary:
// if any schedule could have externalized the write, the checker demands it
// be recoverable.
package modelcheck

import (
	"fmt"
)

// Mutation selects a seeded protocol bug (§4.6's checker validation).
type Mutation int

const (
	// MutNone checks the correct protocol.
	MutNone Mutation = iota
	// MutSeqBeforeData posts the sequence-number write before the data
	// write, so a peer can advertise data it does not hold.
	MutSeqBeforeData
	// MutSwapBeforeCatchup updates the ap-map with a replacement peer
	// before catching it up (Fig 7iii).
	MutSwapBeforeCatchup
	// MutNoRecoveryCatchup skips catching up lagging peers during
	// application recovery (§4.5.1's unsafe shortcut).
	MutNoRecoveryCatchup
)

func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutSeqBeforeData:
		return "seq-before-data"
	case MutSwapBeforeCatchup:
		return "ap-map-before-catch-up"
	default:
		return "no-recovery-catch-up"
	}
}

// Config bounds the exploration.
type Config struct {
	F               int // failure budget; 2F+1 peers
	MaxWrites       int
	MaxPeerCrashes  int
	MaxAppCrashes   int
	MaxReplacements int
	Mutation        Mutation
}

// DefaultConfig explores 3 peers, 3 writes, and generous failure budgets.
func DefaultConfig() Config {
	return Config{F: 1, MaxWrites: 3, MaxPeerCrashes: 2, MaxAppCrashes: 1, MaxReplacements: 2}
}

// opKind is a queued 1-sided write.
type opKind byte

const (
	opData opKind = iota
	opHdr
)

type qop struct {
	Kind opKind
	Seq  int8
}

// peerState is one membership slot.
type peerState struct {
	Alive bool
	MrMap bool // false after a crash+restart: lookup requests are rejected
	Data  int8 // highest data write applied (in-order, so a prefix)
	Hdr   int8 // highest header (sequence number) applied
	Queue []qop
}

// state is one global configuration.
type state struct {
	AppAlive bool
	W        int8 // writes issued (app's local buffer holds all of them)
	A        int8 // writes acknowledged to clients (externalized promise)
	Epoch    int8
	Peers    []peerState
	PeerCr   int8
	AppCr    int8
	Repl     int8
}

func (s *state) clone() *state {
	c := *s
	c.Peers = make([]peerState, len(s.Peers))
	for i, p := range s.Peers {
		c.Peers[i] = p
		c.Peers[i].Queue = append([]qop(nil), p.Queue...)
	}
	return &c
}

// bit is a bool as a key byte.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func (s *state) appendKey(b []byte) []byte {
	b = append(b, bit(s.AppAlive), byte(s.W), byte(s.A), byte(s.Epoch),
		byte(s.PeerCr), byte(s.AppCr), byte(s.Repl), byte(len(s.Peers)))
	for _, p := range s.Peers {
		b = append(b, bit(p.Alive), bit(p.MrMap), byte(p.Data), byte(p.Hdr), byte(len(p.Queue)))
		for _, op := range p.Queue {
			b = append(b, byte(op.Kind), byte(op.Seq))
		}
	}
	return b
}

// eagerAck advances A to the largest write held (header-visible) by a
// majority of current members. Only a live application acknowledges.
func (s *state) eagerAck(f int) {
	if !s.AppAlive {
		return
	}
	for w := s.A + 1; w <= s.W; w++ {
		n := 0
		for _, p := range s.Peers {
			if p.Hdr >= w {
				n++
			}
		}
		if n >= f+1 {
			s.A = w
		} else {
			break
		}
	}
}

// Violation describes a detected correctness failure: what broke, and the
// action trace from the initial state that breaks it.
type Violation struct {
	Kind  string
	Trace []string
}

// Result summarizes a run.
type Result struct {
	States    int
	Violation *Violation
}

// explore is the breadth-first search every checker shares. next enumerates
// the transitions out of s in a fixed order, calling emit once per
// successor; a non-empty violation marks that transition as a
// counterexample and ends the search once s is expanded. Successors are
// deduplicated on the bytes appendKey appends for them, which must be equal
// for exactly the states that are equal field by field (a nil and an empty
// slice included). Breadth-first order makes traces minimal-ish; the first
// counterexample in expansion order wins. States counts the states
// expanded, the violating one included.
func explore[S any](init *S, appendKey func(*S, []byte) []byte,
	next func(s *S, emit func(action string, succ *S, violation string))) Result {
	type node struct {
		st     *S
		parent int
		action string
	}
	nodes := []node{{st: init, parent: -1}}
	var key []byte
	visited := map[string]struct{}{string(appendKey(init, nil)): {}}
	for cur := 0; cur < len(nodes); cur++ {
		var found *Violation
		next(nodes[cur].st, func(action string, succ *S, violation string) {
			switch {
			case found != nil:
			case violation != "":
				trace := []string{action}
				for i := cur; i > 0; i = nodes[i].parent {
					trace = append([]string{nodes[i].action}, trace...)
				}
				found = &Violation{Kind: violation, Trace: trace}
			default:
				key = appendKey(succ, key[:0])
				if _, seen := visited[string(key)]; !seen {
					visited[string(key)] = struct{}{}
					nodes = append(nodes, node{st: succ, parent: cur, action: action})
				}
			}
		})
		if found != nil {
			return Result{States: cur + 1, Violation: found}
		}
		nodes[cur].st = nil // expanded; only the trace link is still needed
	}
	return Result{States: len(nodes)}
}

// Check explores the bounded state space and returns the first violation
// found, or nil.
func Check(cfg Config) Result {
	n := 2*cfg.F + 1
	init := &state{AppAlive: true, Peers: make([]peerState, n)}
	for i := range init.Peers {
		init.Peers[i] = peerState{Alive: true, MrMap: true}
	}
	return explore(init, (*state).appendKey, func(s *state, emit func(string, *state, string)) {
		push := func(action string, st *state) {
			st.eagerAck(cfg.F)
			emit(action, st, "")
		}

		// 1. Application issues the next write.
		if s.AppAlive && s.W < int8(cfg.MaxWrites) {
			c := s.clone()
			c.W++
			for i := range c.Peers {
				if c.Peers[i].Alive && c.Peers[i].MrMap {
					if cfg.Mutation == MutSeqBeforeData {
						c.Peers[i].Queue = append(c.Peers[i].Queue, qop{opHdr, c.W}, qop{opData, c.W})
					} else {
						c.Peers[i].Queue = append(c.Peers[i].Queue, qop{opData, c.W}, qop{opHdr, c.W})
					}
				}
			}
			push(fmt.Sprintf("issue(%d)", c.W), c)
		}

		// 2. Deliver the head of any peer's queue (SQ order).
		for i := range s.Peers {
			if len(s.Peers[i].Queue) == 0 || !s.Peers[i].Alive {
				continue
			}
			c := s.clone()
			op := c.Peers[i].Queue[0]
			c.Peers[i].Queue = c.Peers[i].Queue[1:]
			if op.Kind == opData {
				if op.Seq > c.Peers[i].Data {
					c.Peers[i].Data = op.Seq
				}
			} else if op.Seq > c.Peers[i].Hdr {
				c.Peers[i].Hdr = op.Seq
			}
			push(fmt.Sprintf("deliver(p%d,%v%d)", i, op.Kind, op.Seq), c)
		}

		// 3. Peer crash: memory and mr-map lost, queue dropped.
		if s.PeerCr < int8(cfg.MaxPeerCrashes) {
			for i := range s.Peers {
				if !s.Peers[i].Alive {
					continue
				}
				c := s.clone()
				c.Peers[i] = peerState{Alive: false}
				c.PeerCr++
				push(fmt.Sprintf("crash(p%d)", i), c)
			}
		}

		// 4. Peer restart: alive again but the mr-map is gone.
		for i := range s.Peers {
			if s.Peers[i].Alive {
				continue
			}
			c := s.clone()
			c.Peers[i].Alive = true
			push(fmt.Sprintf("restart(p%d)", i), c)
		}

		// 5. Replacement of a failed member by the live application
		//    (§4.5.2): catch the new peer up from the local buffer, then
		//    switch the ap-map. The mutation swaps that order, so the new
		//    peer is counted before it holds anything.
		if s.AppAlive && s.Repl < int8(cfg.MaxReplacements) {
			for i := range s.Peers {
				if s.Peers[i].Alive && s.Peers[i].MrMap {
					continue // only failed/forgotten members are replaced
				}
				c := s.clone()
				if cfg.Mutation == MutSwapBeforeCatchup {
					c.Peers[i] = peerState{Alive: true, MrMap: true} // empty!
				} else {
					c.Peers[i] = peerState{Alive: true, MrMap: true, Data: c.W, Hdr: c.W}
				}
				c.Epoch++
				c.Repl++
				push(fmt.Sprintf("replace(p%d)", i), c)
			}
		}

		// 6. Application crash: local buffer and in-flight writes vanish.
		if s.AppAlive && s.AppCr < int8(cfg.MaxAppCrashes) {
			c := s.clone()
			c.AppAlive = false
			c.AppCr++
			for i := range c.Peers {
				c.Peers[i].Queue = nil
			}
			push("crash(app)", c)
		}

		// 7. Application recovery: adversarial choice of the f+1 read
		//    quorum among responders (alive peers that still hold the
		//    mr-map entry).
		if !s.AppAlive {
			var responders []int
			for i := range s.Peers {
				if s.Peers[i].Alive && s.Peers[i].MrMap {
					responders = append(responders, i)
				}
			}
			if len(responders) >= cfg.F+1 {
				for _, quorum := range subsets(responders, cfg.F+1) {
					maxHdr := int8(-1)
					rp := -1
					for _, i := range quorum {
						if s.Peers[i].Hdr > maxHdr {
							maxHdr = s.Peers[i].Hdr
							rp = i
						}
					}
					// The §4.6 correctness condition.
					if maxHdr < s.A {
						emit(fmt.Sprintf("recover%v", quorum), s,
							fmt.Sprintf("acked write %d not recoverable (quorum max seq %d)", s.A, maxHdr))
						return
					}
					// The recovery peer must actually hold the data its
					// sequence number advertises.
					if s.Peers[rp].Data < maxHdr {
						emit(fmt.Sprintf("recover%v", quorum), s,
							fmt.Sprintf("recovery peer p%d advertises seq %d but holds data only to %d", rp, maxHdr, s.Peers[rp].Data))
						return
					}
					c := s.clone()
					c.AppAlive = true
					c.W = maxHdr
					c.A = maxHdr // recovered data may be externalized now
					inQuorum := func(i int) bool {
						for _, q := range quorum {
							if q == i {
								return true
							}
						}
						return false
					}
					for i := range c.Peers {
						c.Peers[i].Queue = nil
						switch {
						case c.Peers[i].Alive && c.Peers[i].MrMap:
							if cfg.Mutation == MutNoRecoveryCatchup {
								// Unsafe shortcut: only the quorum's view
								// advances; lagging responders stay behind.
								if inQuorum(i) && i == rp {
									c.Peers[i].Data, c.Peers[i].Hdr = maxHdr, maxHdr
								}
							} else {
								// Catch up every responsive peer via the
								// staging + atomic switch.
								c.Peers[i].Data, c.Peers[i].Hdr = maxHdr, maxHdr
							}
						default:
							// Unresponsive members are replaced with fresh
							// caught-up peers before recovery returns.
							if c.Repl < int8(cfg.MaxReplacements) {
								c.Peers[i] = peerState{Alive: true, MrMap: true, Data: maxHdr, Hdr: maxHdr}
								c.Repl++
								c.Epoch++
							}
						}
					}
					push(fmt.Sprintf("recover%v", quorum), c)
				}
			}
		}
	})
}

// subsets returns all k-element subsets of items.
func subsets(items []int, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < len(items); i++ {
			rec(i+1, append(cur, items[i]))
		}
	}
	rec(0, nil)
	return out
}
