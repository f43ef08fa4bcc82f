package ncl

import (
	"fmt"
	"slices"

	"splitft/internal/controller"
	"splitft/internal/peer"
	"splitft/internal/simnet"
)

// Release parks, open recycles (DESIGN.md §14). A held log's release seals
// it, parks its live members as the lib's one spare group and submits the
// file's ap-map delete, and returns once that delete is on the wire — before
// it commits. The next Open of the same shape — slot count and region size —
// sets its group up on the spare: allocate's wave 0, with no registry read,
// each member recycling the released file's region in place (a new rkey over
// zeroed bytes it has pinned already, and free memory the controller need not
// hear about again). The member keeps a tombstone of the released file in
// place of the region, since the delete may not have committed yet: should it
// be lost, the recovery that finds the tombstone finishes the release. A
// rotation is then one set-up wave with the successor's create proposed
// beside it (allocate), and the create joins the delete's raft round: the
// successor's name is one the lib's directory lacks (Lib.Known), so core
// opens it without asking the ap-map first.
//
// The lib reads its own deletes: ListFiles, and a lookup, Recover or Open of
// the released name, wait for its pending delete and return its error.
// Nothing else does. A delete that fails un-parks the spare it has not lost
// yet — its entry may still name the regions — and leaves the name Known,
// unsure: the next lookup asks the controller whether the entry survived.
//
// The spare costs one group of peer memory per lib until an open takes it, a
// later release displaces it — it is then freed once its own delete has
// committed — or, the application having died, the peers' GC finds no ap-map
// entry for it.

// spareGroup is a released log's members, by slot, and the state of the
// file's ap-map delete.
type spareGroup struct {
	name    string                // the released file, whose regions they hold
	members []controller.PeerInfo // by slot; a zero entry is a hole
	region  int64

	sent      simnet.Semaphore // released once the delete is on the wire
	settled   bool             // the delete has answered ...
	err       error            // ... with this error
	wg        simnet.WaitGroup // done when settled
	displaced bool             // a later release parked its group in this one's place
}

// spare returns lg's active, healthy members as a spare group; every other
// slot is a hole. The caller holds lg.mu.
func (lg *Log) spare() *spareGroup {
	s := &spareGroup{name: lg.name, members: make([]controller.PeerInfo, len(lg.peers)), region: lg.regionSize()}
	for slot, pc := range lg.peers {
		if pc != nil && pc.active && !pc.failed {
			s.members[slot] = controller.PeerInfo{Name: pc.name, Addr: peer.Addr(pc.name), Domain: pc.domain}
		}
	}
	return s
}

// names returns the members' names, holes left out.
func (s *spareGroup) names() []string {
	var out []string
	for _, m := range s.members {
		if m.Name != "" {
			out = append(out, m.Name)
		}
	}
	return out
}

// candidates splits slots into those the spare has a member for that is not
// in skip — returned with that member as their candidate — and the rest.
func (s *spareGroup) candidates(slots []int, skip []string) (cands []controller.PeerInfo, held, rest []int) {
	cands, held = make([]controller.PeerInfo, 0, len(slots)), make([]int, 0, len(slots))
	for _, slot := range slots {
		if m := s.members[slot]; m.Name != "" && !slices.Contains(skip, m.Name) {
			cands, held = append(cands, m), append(held, slot)
		} else {
			rest = append(rest, slot)
		}
	}
	return cands, held, rest
}

// takeSpare hands lg's open the lib's spare group if it has lg's shape. A
// spare of another shape parked under lg's own name is dropped instead, before
// the file is created again: a later recycle naming it would free the new
// file's regions.
func (l *Lib) takeSpare(p *simnet.Proc, lg *Log) *spareGroup {
	s := l.spare
	switch {
	case s == nil:
		return nil
	case len(s.members) == lg.place.Slots && s.region == lg.regionSize():
		l.spare = nil
		return s
	case s.name == lg.name:
		l.spare = nil
		l.drop(p, s)
	}
	return nil
}

// submitDelete sends the ap-map delete of the released file s from a proc of
// its own and returns once the proposal is on the wire: a crash of the
// application from then on no longer stops it. The proc settles s when the
// controller answers.
func (l *Lib) submitDelete(p *simnet.Proc, s *spareGroup) {
	s.wg.Add(1)
	l.deletes[s.name] = s
	p.GoOn(l.node, "ncl-delete", func(dp *simnet.Proc) {
		s.sent.Release(dp) // dp runs on into the send before the releaser wakes
		l.settle(dp, s, l.deleteEntry(dp, s.name, -1))
	})
	s.sent.Acquire(p)
}

// settle records the outcome of s's delete and wakes its waiters. A failed
// delete may have left the entry, so the name is Known again, unsure
// (deleteEntry), and the spare, unless an open took it already, no longer
// spare. A committed one frees the group if a later release displaced it
// meanwhile.
func (l *Lib) settle(p *simnet.Proc, s *spareGroup, err error) {
	if l.deletes[s.name] == s {
		delete(l.deletes, s.name)
	}
	if err != nil {
		s.err = fmt.Errorf("ncl: ap-map delete of %s: %w", s.name, err)
		if l.spare == s {
			l.spare = nil
		}
	}
	s.settled = true
	s.wg.Done(p)
	if err == nil && s.displaced {
		l.freeRegions(p, s.name, s.names())
	}
}

// drop lets go of a spare no open will take: its regions are freed now if its
// delete has committed, or by the delete's proc once it does. (A spare whose
// delete failed is no longer parked, so it is never dropped.)
func (l *Lib) drop(p *simnet.Proc, s *spareGroup) {
	switch {
	case !s.settled:
		s.displaced = true
	case s.err == nil:
		l.freeRegions(p, s.name, s.names())
	}
}

// awaitDelete waits for name's pending ap-map delete, if the lib submitted
// one, and returns its error.
func (l *Lib) awaitDelete(p *simnet.Proc, name string) error {
	if s := l.deletes[name]; s != nil {
		return s.await(p)
	}
	return nil
}

// await waits for s's delete to settle and returns its error.
func (s *spareGroup) await(p *simnet.Proc) error {
	s.wg.Wait(p)
	return s.err
}
