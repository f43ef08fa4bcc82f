package main

import "testing"

func TestLedgerSequentialWrites(t *testing.T) {
	l := newLedger()
	l.invoke("k", 1, 10)
	l.ack("k", 1, 20)
	l.invoke("k", 2, 30)
	l.ack("k", 2, 40)
	if l.valid("k", 1, true) {
		t.Error("tag 1 was overwritten by a write invoked after its ack: stale")
	}
	if !l.valid("k", 2, true) {
		t.Error("tag 2 is the last acknowledged write")
	}
	if l.valid("k", 0, false) {
		t.Error("an acknowledged key must not be absent")
	}
	if !l.valid("never-written", 0, false) || l.valid("never-written", 7, true) {
		t.Error("a key nobody wrote must be absent")
	}
}

func TestLedgerConcurrentAndInFlightWrites(t *testing.T) {
	l := newLedger()
	// Two overlapping writes: the store may order them either way.
	l.invoke("k", 1, 10)
	l.invoke("k", 2, 12)
	l.ack("k", 2, 20)
	l.ack("k", 1, 22)
	if !l.valid("k", 1, true) || !l.valid("k", 2, true) {
		t.Error("overlapping acknowledged writes are both legal survivors")
	}
	// A write still in flight at the crash may or may not have landed.
	l.invoke("k", 3, 30)
	if !l.valid("k", 3, true) || !l.valid("k", 1, true) {
		t.Error("an in-flight write and the acknowledged one before it are both legal")
	}
	// Once a later write is acknowledged, everything acked before its invoke is stale.
	l.ack("k", 3, 40)
	if l.valid("k", 1, true) || l.valid("k", 2, true) || !l.valid("k", 3, true) {
		t.Error("after tag 3 is acknowledged only tag 3 may survive")
	}
	// A key whose only write never got its ack may be absent or present.
	l.invoke("j", 9, 50)
	if !l.valid("j", 0, false) || !l.valid("j", 9, true) || l.valid("j", 8, true) {
		t.Error("in-flight-only key: absent or its own value, nothing else")
	}
}

func TestValueRoundTrip(t *testing.T) {
	buf := make([]byte, 100)
	v := valueFor(buf, 0xdeadbeefcafe)
	if tag, ok := tagOf(v); tag != 0xdeadbeefcafe || !ok {
		t.Errorf("tagOf = %#x, %v", tag, ok)
	}
	v[50] ^= 1
	if _, ok := tagOf(v); ok {
		t.Error("a flipped byte must be detected")
	}
	if _, ok := tagOf(v[:4]); ok {
		t.Error("a truncated value must be detected")
	}
}
