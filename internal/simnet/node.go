package simnet

import (
	"fmt"
	"time"
)

// Node models one physical machine. Procs spawned via Node.Go die when the
// node crashes; subsystems (NIC, file-system client, peer daemon) register
// crash hooks to invalidate their state, mirroring what losing a machine
// loses: memory contents, registered memory regions, open connections.
type Node struct {
	sim   *Sim
	name  string
	alive bool
	// incarnation increments on every restart so stale messages and hooks
	// can be detected by subsystems that care.
	incarnation int

	// Intrusive list of live procs bound to this node, in spawn order, so
	// a crash kills them deterministically.
	procsHead, procsTail *Proc
	onCrash              []func()

	cpu *CPU
}

// addProc / removeProc maintain the node's intrusive proc list.
func (n *Node) addProc(p *Proc) {
	p.prevNode = n.procsTail
	if n.procsTail != nil {
		n.procsTail.nextNode = p
	} else {
		n.procsHead = p
	}
	n.procsTail = p
}

func (n *Node) removeProc(p *Proc) {
	if p.prevNode != nil {
		p.prevNode.nextNode = p.nextNode
	} else {
		n.procsHead = p.nextNode
	}
	if p.nextNode != nil {
		p.nextNode.prevNode = p.prevNode
	} else {
		n.procsTail = p.prevNode
	}
	p.prevNode, p.nextNode = nil, nil
}

// NewNode adds a machine to the simulation.
func (s *Sim) NewNode(name string) *Node {
	if _, dup := s.nodes[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", name))
	}
	n := &Node{sim: s, name: name, alive: true}
	n.cpu = &CPU{node: n, cores: 1}
	s.nodes[name] = n
	return n
}

// Node returns a node by name, or nil.
func (s *Sim) Node(name string) *Node { return s.nodes[name] }

// Name returns the machine name.
func (n *Node) Name() string { return n.name }

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive }

// Incarnation returns the restart count (0 for the first boot).
func (n *Node) Incarnation() int { return n.incarnation }

// Sim returns the owning simulator.
func (n *Node) Sim() *Sim { return n.sim }

// Go spawns a proc bound to this node.
func (n *Node) Go(name string, fn func(*Proc)) *Proc {
	if !n.alive {
		panic(fmt.Sprintf("simnet: spawn on dead node %q", n.name))
	}
	return n.sim.spawn(n, name, fn)
}

// OnCrash registers a hook invoked synchronously when the node crashes.
// Hooks run in the crasher's context and must not block.
func (n *Node) OnCrash(fn func()) { n.onCrash = append(n.onCrash, fn) }

// Crash takes the node down: every proc bound to it is killed, crash hooks
// fire, and the CPU queue is wiped. In-memory state owned by procs
// disappears with them; durable state is whatever subsystems modelled as
// durable. Crash may be called from any proc, including one on n itself.
func (n *Node) Crash() {
	if !n.alive {
		return
	}
	n.alive = false
	if n.sim.cutNode == n {
		n.sim.cutNode = nil // a cut armed on n dies with it
	}
	hooks := n.onCrash
	n.onCrash = nil
	for _, fn := range hooks {
		fn()
	}
	for p := n.procsHead; p != nil; p = p.nextNode {
		p.kill()
	}
	n.cpu.reset()
}

// Restart brings a crashed node back up. The caller is responsible for
// re-spawning its services (as an operator or supervisor would).
func (n *Node) Restart() {
	if n.alive {
		return
	}
	n.alive = true
	n.incarnation++
}

// SetCores configures the number of CPU cores for the node's CPU model.
func (n *Node) SetCores(k int) {
	if k < 1 {
		panic("simnet: node needs at least one core")
	}
	n.cpu.cores = k
}

// CPU returns the node's processor model.
func (n *Node) CPU() *CPU { return n.cpu }

// CPU models a node's processor as k cores executing FIFO, run-to-completion
// work slices. Procs call Use to spend modelled CPU time; when all cores are
// busy the proc queues. This is what makes server throughput saturate: a
// 10-core application server doing 4 us of work per request tops out near
// 2.5 M slices/s, and a single-threaded store (Redis) is modelled by
// funnelling all work through one proc rather than through this queue.
type CPU struct {
	node  *Node
	cores int
	busy  int
	q     waitQ
}

// Use occupies one core for d of virtual time, queueing if none is free.
func (c *CPU) Use(p *Proc, d time.Duration) {
	for c.busy >= c.cores {
		w := p.newWaiter()
		c.q.push(w)
		p.park()
		p.releaseWaiter(w)
	}
	c.busy++
	p.Sleep(d)
	c.busy--
	if w := c.q.popLive(p.sim); w != nil {
		w.state = wCancelled
		wakeWaiter(p.sim, w, p.sim.now)
	}
}

func (c *CPU) reset() {
	c.busy = 0
	c.q = waitQ{}
}
