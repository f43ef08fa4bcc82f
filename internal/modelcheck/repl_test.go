package modelcheck

import (
	"strings"
	"testing"

	"splitft/internal/ncl"
)

func mustSpec(t *testing.T, s string) ncl.PolicySpec {
	t.Helper()
	spec, err := ncl.ParsePolicy(s)
	if err != nil {
		t.Fatalf("ParsePolicy(%q): %v", s, err)
	}
	return spec
}

// Every policy's correct ack rule survives its full failure budget, at two
// bound sizes each.
func TestReplicationCorrectProtocols(t *testing.T) {
	states := map[string][2]int{ // explored at writes=3 and writes=4
		"mirror": {280, 600}, "mirror:2": {6980, 20600}, "ec:2,1": {250, 540},
		"ec:2,2": {1238, 3093}, "quorum": {280, 600}, "quorum:2": {6980, 20600},
	}
	for _, pol := range []string{"mirror", "mirror:2", "ec:2,1", "ec:2,2", "quorum", "quorum:2"} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			spec := mustSpec(t, pol)
			small := DefaultReplConfig(spec)
			for i, cfg := range []ReplConfig{small, {MaxWrites: 4, MaxCrashes: spec.Tolerates()}} {
				res := CheckReplication(spec, cfg)
				if res.Violation != nil {
					t.Fatalf("correct %s flagged at writes=%d: %s\ntrace: %v",
						pol, cfg.MaxWrites, res.Violation.Kind, res.Violation.Trace)
				}
				if res.States < 100 {
					t.Fatalf("explored only %d states; bounds too tight to mean anything", res.States)
				}
				pinned(t, res, states[pol][i], "")
			}
		})
	}
}

func TestReplicationLostStripeIsCaught(t *testing.T) {
	for pol, pin := range map[string]struct {
		states int
		trace  string
	}{
		"ec:2,1": {20, "write(0) deliver(w0,p0) deliver(w0,p1) crash(p0)"},
		"ec:2,2": {200, "write(0) deliver(w0,p0) deliver(w0,p1) deliver(w0,p2) crash(p0) crash(p1)"},
	} {
		t.Run(pol, func(t *testing.T) {
			spec := mustSpec(t, pol)
			cfg := DefaultReplConfig(spec)
			cfg.Mutation = ReplMutLostStripe
			res := CheckReplication(spec, cfg)
			if res.Violation == nil {
				t.Fatal("lost-stripe ack bug not caught")
			}
			if len(res.Violation.Trace) == 0 || !strings.Contains(res.Violation.Trace[len(res.Violation.Trace)-1], "crash") {
				// The minimal counterexample ends in the crash that drops the
				// stripe below K cells.
				t.Fatalf("counterexample trace does not end in a crash: %v", res.Violation.Trace)
			}
			pinned(t, res, pin.states, pin.trace)
		})
	}
}

func TestReplicationSplitBrainAckIsCaught(t *testing.T) {
	for pol, pin := range map[string]struct {
		states int
		trace  string
	}{
		"quorum":   {2, "write(0) deliver(w0,p0)"},
		"quorum:2": {9, "write(0) deliver(w0,p0) deliver(w0,p1)"},
		"mirror":   {2, "write(0) deliver(w0,p0)"},
	} {
		t.Run(pol, func(t *testing.T) {
			spec := mustSpec(t, pol)
			cfg := DefaultReplConfig(spec)
			cfg.Mutation = ReplMutSplitBrainAck
			res := CheckReplication(spec, cfg)
			if res.Violation == nil {
				t.Fatal("split-brain (minority) ack bug not caught")
			}
			pinned(t, res, pin.states, pin.trace)
		})
	}
}

// Anti-vacuity: a crash budget one past the policy's tolerance must produce
// violations even for the correct protocol — otherwise "correct passes"
// would mean the checker can't see loss at all.
func TestReplicationOverBudgetIsDetected(t *testing.T) {
	for pol, pin := range map[string]struct {
		states int
		trace  string
	}{
		"mirror": {57, "write(0) deliver(w0,p0) deliver(w0,p1) crash(p0) crash(p1)"},
		"ec:2,1": {97, "write(0) deliver(w0,p0) deliver(w0,p1) deliver(w0,p2) crash(p0) crash(p1)"},
		"quorum": {57, "write(0) deliver(w0,p0) deliver(w0,p1) crash(p0) crash(p1)"},
	} {
		t.Run(pol, func(t *testing.T) {
			spec := mustSpec(t, pol)
			cfg := DefaultReplConfig(spec)
			cfg.MaxCrashes = spec.Tolerates() + 1
			res := CheckReplication(spec, cfg)
			if res.Violation == nil {
				t.Fatalf("%s: exceeding the failure budget should lose acked writes", pol)
			}
			pinned(t, res, pin.states, pin.trace)
		})
	}
}
