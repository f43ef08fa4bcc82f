package main

import "time"

// ledger remembers, per key, which written values a crash may legally leave
// behind, so the read-back after recovery can count lost acknowledged
// writes. A write is identified by a tag the workload embeds in the value.
//
// With concurrent writers to one key the store is free to order writes that
// overlapped, so more than one value can be valid. The rule is the register
// form of linearizability: the surviving write w must not have been
// acknowledged before some other acknowledged write was even invoked — that
// later write would have overwritten it. In-flight (never acknowledged)
// writes stay candidates: the crash may or may not have kept them.
type ledger struct {
	keys map[string]*keyState
}

type keyState struct {
	// floor is the latest invoke time among acknowledged writes: any
	// candidate acknowledged before it has been overwritten.
	floor time.Duration
	cands []candidate
}

type candidate struct {
	tag    uint64
	invoke time.Duration
	ack    time.Duration // -1 while in flight
}

func newLedger() *ledger { return &ledger{keys: make(map[string]*keyState)} }

// invoke records that a write of tag to key was issued at now.
func (l *ledger) invoke(key string, tag uint64, now time.Duration) {
	ks := l.keys[key]
	if ks == nil {
		ks = &keyState{}
		l.keys[key] = ks
	}
	ks.cands = append(ks.cands, candidate{tag: tag, invoke: now, ack: -1})
}

// ack records that the write of tag to key was acknowledged at now and
// drops every candidate it overwrote.
func (l *ledger) ack(key string, tag uint64, now time.Duration) {
	ks := l.keys[key]
	for i := range ks.cands {
		if c := &ks.cands[i]; c.tag == tag {
			c.ack = now
			if c.invoke > ks.floor {
				ks.floor = c.invoke
			}
		}
	}
	kept := ks.cands[:0]
	for _, c := range ks.cands {
		if c.ack < 0 || c.ack >= ks.floor {
			kept = append(kept, c)
		}
	}
	ks.cands = kept
}

// acked reports whether key has at least one acknowledged write.
func (ks *keyState) acked() bool {
	for _, c := range ks.cands {
		if c.ack >= 0 {
			return true
		}
	}
	return false
}

// valid reports whether reading (tag, present) for key after recovery is
// consistent with the acknowledged history. A key whose every write is
// still in flight may also legally be absent.
func (l *ledger) valid(key string, tag uint64, present bool) bool {
	ks := l.keys[key]
	if ks == nil {
		return !present
	}
	if !present {
		return !ks.acked()
	}
	for _, c := range ks.cands {
		if c.tag == tag {
			return true
		}
	}
	return false
}
