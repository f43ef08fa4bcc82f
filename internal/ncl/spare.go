package ncl

import (
	"slices"

	"splitft/internal/controller"
	"splitft/internal/peer"
	"splitft/internal/simnet"
)

// Release parks, open recycles (DESIGN.md §14). Once a held log's ap-map
// delete has committed, its live members keep their regions as the lib's one
// spare group, and the next Open of the same shape — slot count and region
// size — sets its group up on them: allocate's wave 0, with no registry read,
// each member recycling the released file's region in place (a new rkey over
// zeroed bytes it has pinned already, and free memory the controller need not
// hear about again). A rotation is then delete, one set-up wave, create: the
// successor's name is one the lib does not know (Lib.Known), so core opens it
// without asking the ap-map first.
// The spare costs one group of peer memory per lib until an open takes it, a
// later release displaces it, or — the application having died — the peers'
// GC finds no ap-map entry for it.

// spareGroup is a released log's members, by slot.
type spareGroup struct {
	name    string                // the released file, whose regions they hold
	members []controller.PeerInfo // by slot; a zero entry is a hole
	region  int64
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
// spare of another shape parked under lg's own name is freed instead, before
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
		l.freeRegions(p, s.name, s.names())
	}
	return nil
}
