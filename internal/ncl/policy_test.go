package ncl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"splitft/internal/simnet"
)

// ---- Spec parsing and placement ----

func TestParsePolicyRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want PolicySpec
	}{
		{"", PolicySpec{Kind: PolicyMirror, F: 1}},
		{"mirror", PolicySpec{Kind: PolicyMirror, F: 1}},
		{"mirror:2", PolicySpec{Kind: PolicyMirror, F: 2}},
		{"ec:4,2", PolicySpec{Kind: PolicyEC, K: 4, M: 2}},
		{"ec:10,4", PolicySpec{Kind: PolicyEC, K: 10, M: 4}},
		{"quorum", PolicySpec{Kind: PolicyQuorum, F: 1}},
		{"quorum:3", PolicySpec{Kind: PolicyQuorum, F: 3}},
	}
	for _, tc := range cases {
		got, err := ParsePolicy(tc.in)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		back, err := ParsePolicy(got.String())
		if err != nil || back != got {
			t.Errorf("round trip %q -> %q -> %+v (%v)", tc.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"ec", "ec:1,2", "ec:4", "ec:4,0", "ec:12,8", "mirror:0", "mirror:9", "raid5", "quorum:x", "swarm-quorum"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

// Group shapes, and the headline memory claim: ec(4,2) replicates a log at
// <= 1.6x its capacity where mirror costs ~3x. The factor is what the peer
// registry reserves, Slots x SlotRegion.
func TestPlacementShapes(t *testing.T) {
	const capacity = 64 << 20
	cases := []struct {
		spec                                string
		slots, ackNeed, minAlive, tolerates int
		memLo, memHi                        float64
	}{
		{"mirror", 3, 2, 2, 1, 2.99, 3.01},
		{"mirror:2", 5, 3, 3, 2, 4.99, 5.01},
		{"ec:4,2", 6, 6, 4, 2, 1.45, 1.60},
		{"quorum", 3, 2, 2, 1, 3.0, 3.45},
	}
	for _, tc := range cases {
		spec, err := ParsePolicy(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		pl := spec.Place(capacity)
		if pl.Slots != tc.slots || pl.AckNeed != tc.ackNeed || pl.MinAlive != tc.minAlive {
			t.Errorf("%s: placement %+v, want slots=%d ack=%d alive=%d",
				tc.spec, pl, tc.slots, tc.ackNeed, tc.minAlive)
		}
		if got := spec.Tolerates(); got != tc.tolerates {
			t.Errorf("%s: tolerates %d, want %d", tc.spec, got, tc.tolerates)
		}
		if mem := float64(int64(pl.Slots)*pl.SlotRegion) / capacity; mem < tc.memLo || mem > tc.memHi {
			t.Errorf("%s: %.3fx the capacity reserved, want [%.2f, %.2f]", tc.spec, mem, tc.memLo, tc.memHi)
		}
	}
}

// ---- Frame codec ----

func TestFrameScanStopsAtGarbage(t *testing.T) {
	buf := make([]byte, 4096)
	pos := int64(0)
	for i := 1; i <= 3; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 10)
		copy(buf[pos+frameHdrSize:], payload)
		putFrame(buf[pos:pos+frameHdrSize+10], uint64(i), 1, int64((i-1)*10), 10, 10)
		pos += frameHdrSize + 10
	}
	fr := scanFrames(buf, 4096)
	if len(fr) != 3 {
		t.Fatalf("scanned %d frames, want 3", len(fr))
	}
	for i, f := range fr {
		if f.seq != uint64(i+1) || f.len != 10 || f.off != int64(i*10) {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
	// Corrupt the second frame's payload: the scan must stop after frame 1.
	buf[frameHdrSize+10+frameHdrSize+3] ^= 0xff
	if fr := scanFrames(buf, 4096); len(fr) != 1 {
		t.Fatalf("scan past corruption: %d frames", len(fr))
	}
}

func TestFrameScanRejectsStaleGeneration(t *testing.T) {
	// A frame log recovered under epoch e+1 with stale epoch-e bytes beyond
	// the recovered prefix: once an e+1 frame appears, a following e frame
	// (stale leftover) terminates the scan.
	buf := make([]byte, 4096)
	w := func(pos int64, seq, gen uint64) int64 {
		copy(buf[pos+frameHdrSize:], []byte("0123456789"))
		putFrame(buf[pos:pos+frameHdrSize+10], seq, gen, 0, 10, 10)
		return pos + frameHdrSize + 10
	}
	pos := w(0, 1, 1)
	pos = w(pos, 2, 2) // post-recovery write under the bumped epoch
	_ = w(pos, 3, 1)   // stale pre-crash leftover: gen regressed
	if fr := scanFrames(buf, 4096); len(fr) != 2 {
		t.Fatalf("stale-generation frame accepted: %d frames", len(fr))
	}
}

func TestFrameScanAcceptsZeroLength(t *testing.T) {
	buf := make([]byte, 1024)
	putFrame(buf[0:frameHdrSize], 1, 1, 0, 0, 0)
	copy(buf[frameHdrSize+frameHdrSize:], []byte("xy"))
	putFrame(buf[frameHdrSize:2*frameHdrSize+2], 2, 1, 0, 2, 2)
	if fr := scanFrames(buf, 1024); len(fr) != 2 {
		t.Fatalf("zero-length frame broke the scan: %d frames", len(fr))
	}
}

// ---- Per-policy behavior on the simulated testbed ----

func policyCfg(t *testing.T, policy string) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Replication = policy
	return cfg
}

// allPolicies are the specs every cross-policy test sweeps.
var allPolicies = []string{"mirror", "ec:4,2", "quorum"}

func TestFrameBudgetExhaustion(t *testing.T) {
	// Tiny records burn the ec/quorum frame-header slack; Append must fail
	// cleanly with ErrRegionFull (wrapped), roll the write back, and keep the
	// log usable after the app checkpoints (Release + Open).
	for _, pol := range []string{"ec:4,2", "quorum"} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			c := newCluster(35, 8, smallPeerCfg())
			c.run(t, func(p *simnet.Proc) {
				l, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, policyCfg(t, pol))
				if err != nil {
					t.Fatalf("new lib: %v", err)
				}
				lg, err := l.Open(p, "wal", 4096, false)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				var budgetErr error
				wrote := 0
				for i := 0; i < 4096; i++ {
					// 1-byte overwrites at offset 0: no capacity pressure, pure
					// frame-budget pressure.
					if err := lg.Record(p, 0, []byte{byte(i)}); err != nil {
						budgetErr = err
						break
					}
					wrote++
				}
				if budgetErr == nil {
					t.Fatal("frame budget never exhausted")
				}
				if !errors.Is(budgetErr, ErrRegionFull) {
					t.Fatalf("budget exhaustion error = %v, want ErrRegionFull", budgetErr)
				}
				seqBefore := lg.Seq()
				if err := lg.Record(p, 0, []byte{0xff}); !errors.Is(err, ErrRegionFull) {
					t.Fatalf("write after exhaustion: %v", err)
				}
				if lg.Seq() != seqBefore {
					t.Fatalf("failed append advanced seq: %d -> %d", seqBefore, lg.Seq())
				}
				// The checkpoint/rotate path resets the budget.
				if err := lg.Release(p); err != nil {
					t.Fatalf("release: %v", err)
				}
				lg2, err := l.Open(p, "wal", 4096, false)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if err := lg2.Record(p, 0, []byte{1}); err != nil {
					t.Fatalf("write after rotate: %v", err)
				}
				_ = wrote
			})
		})
	}
}

func TestECBigRecordsFillNominalCapacity(t *testing.T) {
	// The sizing guarantee: records >= 2 KiB never hit the ec frame budget
	// before the nominal capacity itself.
	c := newCluster(36, 8, smallPeerCfg())
	c.run(t, func(p *simnet.Proc) {
		l, _ := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, policyCfg(t, "ec:4,2"))
		const capacity = 256 << 10
		lg, err := l.Open(p, "wal", capacity, false)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		rec := make([]byte, 2048)
		for off := int64(0); off+2048 <= capacity; off += 2048 {
			if _, err := lg.Append(p, rec); err != nil {
				t.Fatalf("append at %d/%d: %v", off, int64(capacity), err)
			}
		}
		if lg.Length() != capacity {
			t.Fatalf("filled %d of %d", lg.Length(), int64(capacity))
		}
	})
}

func TestPolicyTraceDeterministic(t *testing.T) {
	// Same (policy, seed) twice => byte-identical event history. The
	// simulation's determinism contract extends to every policy.
	for _, pol := range allPolicies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			run := func() string {
				c := newCluster(37, 8, smallPeerCfg())
				var out string
				c.run(t, func(p *simnet.Proc) {
					l, err := NewLib(p, c.svc, c.fabric, c.appNode, "app1", 0, policyCfg(t, pol))
					if err != nil {
						t.Fatalf("new lib: %v", err)
					}
					lg, err := l.Open(p, "wal", 1<<20, false)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					var hist []string
					for i := 0; i < 20; i++ {
						start := p.Now()
						if _, err := lg.Append(p, bytes.Repeat([]byte{byte(i)}, 128+i)); err != nil {
							t.Fatalf("append: %v", err)
						}
						hist = append(hist, fmt.Sprintf("%d:%d", i, p.Now()-start))
					}
					hist = append(hist, fmt.Sprintf("peers:%v seq:%d", lg.LivePeers(), lg.Seq()))
					out = fmt.Sprint(hist)
				})
				return out
			}
			a, b := run(), run()
			if a == "" || a != b {
				t.Fatalf("non-deterministic history:\n%s\nvs\n%s", a, b)
			}
		})
	}
}
