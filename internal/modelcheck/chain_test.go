package modelcheck

import "testing"

func chainCfgWith(m ChainMutation) ChainConfig {
	cfg := DefaultChainConfig()
	cfg.Mutation = m
	return cfg
}

func TestChainCorrectProtocolHasNoViolations(t *testing.T) {
	res := CheckChain(chainCfgWith(ChainMutNone))
	if res.Violation != nil {
		t.Fatalf("correct chain protocol flagged: %s\ntrace: %v", res.Violation.Kind, res.Violation.Trace)
	}
	if res.States < 500 {
		t.Fatalf("explored only %d states; bounds too tight to mean anything", res.States)
	}
	pinned(t, res, 999, "")
}

func TestChainAckEarlyIsCaught(t *testing.T) {
	res := CheckChain(chainCfgWith(ChainMutAckEarly))
	if res.Violation == nil {
		t.Fatal("ack-at-head bug not caught")
	}
	// The minimal counterexample: the head stores and acks frame 0, then
	// crashes before anyone downstream holds it.
	pinned(t, res, 8, "send(0) deliver(f0,pos0) crash(sn0)")
}

func TestChainAckOnSendIsCaught(t *testing.T) {
	res := CheckChain(chainCfgWith(ChainMutAckOnSend))
	if res.Violation == nil {
		t.Fatal("ack-on-send bug not caught")
	}
	pinned(t, res, 1, "send(0)")
}

// A crash budget that can wipe the whole chain before a re-form completes
// breaks durability by design — the checker must see that too, or the
// "correct protocol passes" result would be vacuous.
func TestChainFullWipeIsDetected(t *testing.T) {
	cfg := DefaultChainConfig()
	cfg.MaxCrashes = cfg.ChainLen
	res := CheckChain(cfg)
	if res.Violation == nil {
		t.Fatal("wiping every chain member should strand acked frames")
	}
	pinned(t, res, 362, "send(0) deliver(f0,pos0) deliver(f0,pos1) deliver(f0,pos2) crash(sn0) crash(sn1) crash(sn2)")
}

func TestChainCorrectProtocolLargerBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	cfg := ChainConfig{ChainLen: 3, Spares: 2, MaxFrames: 3, MaxCrashes: 2, MaxReforms: 2}
	res := CheckChain(cfg)
	if res.Violation != nil {
		t.Fatalf("violation at larger bounds: %s\ntrace: %v", res.Violation.Kind, res.Violation.Trace)
	}
	pinned(t, res, 12894, "")
}
