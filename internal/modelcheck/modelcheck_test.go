package modelcheck

import (
	"fmt"
	"strings"
	"testing"
)

// pinned asserts that an exploration is exactly the one recorded before the
// three checkers moved onto the shared explore: the same number of states
// expanded and, for a counterexample, the same action trace ("" for none).
// A deliberate change to a model's transitions or to the search order
// changes these numbers; anything else must not.
func pinned(t *testing.T, res Result, states int, trace string) {
	t.Helper()
	got := ""
	if res.Violation != nil {
		got = strings.Join(res.Violation.Trace, " ")
	}
	if res.States != states || got != trace {
		t.Errorf("explored %d states with trace %q, pinned at %d states with trace %q", res.States, got, states, trace)
	}
}

func cfgWith(m Mutation) Config {
	cfg := DefaultConfig()
	cfg.MaxAppCrashes = 2 // some seeded bugs need two recoveries to surface
	cfg.Mutation = m
	return cfg
}

func TestCorrectProtocolHasNoViolations(t *testing.T) {
	res := Check(cfgWith(MutNone))
	if res.Violation != nil {
		t.Fatalf("correct protocol flagged: %s\ntrace: %v", res.Violation.Kind, res.Violation.Trace)
	}
	if res.States < 1000 {
		t.Fatalf("explored only %d states; bounds too tight to mean anything", res.States)
	}
	pinned(t, res, 27680, "")
}

func TestSeqBeforeDataIsCaught(t *testing.T) {
	res := Check(cfgWith(MutSeqBeforeData))
	if res.Violation == nil {
		t.Fatal("seq-before-data bug not caught")
	}
	t.Logf("caught after %d states: %s", res.States, res.Violation.Kind)
	pinned(t, res, 39, "issue(1) deliver(p0,11) crash(app) recover[0 1]")
}

func TestSwapBeforeCatchupIsCaught(t *testing.T) {
	res := Check(cfgWith(MutSwapBeforeCatchup))
	if res.Violation == nil {
		t.Fatal("ap-map-before-catch-up bug not caught")
	}
	t.Logf("caught after %d states: %s", res.States, res.Violation.Kind)
	pinned(t, res, 3011, "issue(1) deliver(p0,01) deliver(p0,11) deliver(p1,01) deliver(p1,11) crash(p0) replace(p0) crash(app) recover[0 2]")
}

func TestNoRecoveryCatchupIsCaught(t *testing.T) {
	res := Check(cfgWith(MutNoRecoveryCatchup))
	if res.Violation == nil {
		t.Fatal("no-recovery-catch-up bug not caught")
	}
	t.Logf("caught after %d states: %s", res.States, res.Violation.Kind)
	pinned(t, res, 910, "issue(1) deliver(p0,01) deliver(p0,11) crash(app) recover[0 1] crash(app) recover[1 2]")
}

func TestCorrectProtocolLargerBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	cfg := Config{F: 1, MaxWrites: 4, MaxPeerCrashes: 3, MaxAppCrashes: 2, MaxReplacements: 3}
	res := Check(cfg)
	if res.Violation != nil {
		t.Fatalf("violation at larger bounds: %s\ntrace: %v", res.Violation.Kind, res.Violation.Trace)
	}
	pinned(t, res, 126275, "")
}

func TestSubsets(t *testing.T) {
	got := subsets([]int{0, 1, 2}, 2)
	if len(got) != 3 {
		t.Fatalf("subsets = %v", got)
	}
	want := map[string]bool{"[0 1]": true, "[0 2]": true, "[1 2]": true}
	for _, s := range got {
		if !want[fmt.Sprint(s)] {
			t.Fatalf("unexpected subset %v", s)
		}
	}
}

func TestEagerAckRequiresMajority(t *testing.T) {
	s := &state{AppAlive: true, W: 2, Peers: []peerState{
		{Alive: true, MrMap: true, Data: 2, Hdr: 2},
		{Alive: true, MrMap: true, Data: 1, Hdr: 1},
		{Alive: true, MrMap: true},
	}}
	s.eagerAck(1)
	if s.A != 1 {
		t.Fatalf("A = %d, want 1 (write 2 is on one peer only)", s.A)
	}
	s.Peers[1].Hdr = 2
	s.Peers[1].Data = 2
	s.eagerAck(1)
	if s.A != 2 {
		t.Fatalf("A = %d, want 2", s.A)
	}
}
