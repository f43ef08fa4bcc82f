package simnet

import (
	"slices"
	"time"
)

// BlameWindow is how long a name stays blamed after its last Blame.
// Failure detection here is timeout-based and cannot tell a crashed node
// from a slow one, so blame must expire: a node that was merely slow comes
// back after the window instead of being shunned for its owner's lifetime.
const BlameWindow = 2 * time.Second

// BlameSet is one owner's view of which nodes recently failed it: a set of
// names, each blamed until a virtual time (DESIGN.md §3b). Its owner stops
// picking a blamed name for new work, and re-admits the set when blame
// leaves too few candidates: capacity beats blame, since a node blamed for a
// lost reply may be alive while a starved allocator makes no progress.
type BlameSet struct {
	sim   *Sim
	until map[string]time.Duration
}

// NewBlameSet returns an empty set whose windows run on s's clock.
func NewBlameSet(s *Sim) *BlameSet {
	return &BlameSet{sim: s, until: make(map[string]time.Duration)}
}

// Blame marks name blamed for BlameWindow from now.
func (b *BlameSet) Blame(name string) { b.until[name] = b.sim.now + BlameWindow }

// Blamed reports whether name is inside its window.
func (b *BlameSet) Blamed(name string) bool { return b.sim.now < b.until[name] }

// Names returns the blamed names in sorted order.
func (b *BlameSet) Names() []string {
	var out []string
	for name := range b.until {
		if b.Blamed(name) {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// Readmit forgives every name at once.
func (b *BlameSet) Readmit() { clear(b.until) }
