package main

import (
	"fmt"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// peer-fault-open: kvstore on SplitFT with an embedded writer pool on the app
// node — no client RPC, so no client timeout or retry gap quantizes what is
// measured — write-only, open loop at a fixed rate. A seeded schedule of
// twelve fault events alternates one WAL-peer crash (within the policy's
// budget f) with two simultaneous WAL-peer crashes (beyond it); victims are
// drawn from the active WAL's live peers at the instant of the event and
// restarted a fixed time later. ncl repair/replace, peer set-up,
// controller/raft and rdma.register do the work; the steady write path does
// little.
//
// Sixteen peers, not the six the other workloads use: a crashed peer stays
// on ncl-lib's suspect list for SuspectCooldown (2 s), so three crashes every
// two events would drain a six-peer pool by the third event and the workload
// would measure the cooldown constant instead of detection and repair.
const (
	faultAppID   = "benchfault"
	faultPeers   = 16
	faultPool    = 16
	faultRate    = 40_000 // a 25 us arrival gap sets the resolution of the ack gaps
	faultEvents  = 12
	faultSpacing = 400 * time.Millisecond // at scale 1
	faultRestart = 150 * time.Millisecond
	faultRows    = 50_000
	faultPoll    = 100 * time.Microsecond
)

// faultPlan is one scheduled event: how many victims and which of the live
// peers (as indexes into the sorted live list, reduced modulo its length).
type faultPlan struct {
	victims int
	pick    [2]int
}

func runPeerFault(e *env) error {
	r := &e.res
	spacing, restart := e.scaled(faultSpacing), e.scaled(faultRestart)
	events := faultEvents / e.frac()
	// Events fall at spacing, 2 x spacing, ...; the window closes one spacing
	// after the last, so its quarter holds the first three.
	win := spacing * time.Duration(faultEvents+1)
	// One stream per input, so a traced run's shorter lists are prefixes of
	// the untraced run's.
	due, offered := e.arrivals(1, faultRate, win)
	keyIdx := make([]int32, len(due))
	for i, rng := 0, e.rng(2); i < len(keyIdx); i++ {
		keyIdx[i] = int32(rng.Intn(faultRows))
	}
	sizes := writeSizes(e.rng(3), len(due))
	plan := make([]faultPlan, events)
	for i, rng := 0, e.rng(4); i < len(plan); i++ {
		plan[i] = faultPlan{victims: 1 + i%2, pick: [2]int{rng.Intn(6), rng.Intn(6)}}
	}
	keys := keyTable(faultRows + kvFiller)

	c := e.cluster(faultPeers, 0)
	return c.Run(func(p *simnet.Proc) error {
		// A 16 MiB memtable over a 32 MiB WAL region: replacing a peer means
		// registering and catching up a region of the size the paper's Table 3
		// and Fig 12 are about, and the stalls beyond f then cover some 4 % of
		// the window, which puts write_p99_us well inside them instead of on
		// their edge.
		cfg := e.kvConfig(0)
		cfg.MemtableBytes, cfg.WALRegion = 16<<20, 32<<20
		k, err := e.openKV(p, faultAppID, cfg, keys)
		if err != nil {
			return err
		}
		if err := k.load(p, faultRows); err != nil {
			return err
		}
		// recovery_ms is taken here, from a crash of the freshly loaded store,
		// not from the crash that ends the run. How long that last recovery
		// takes depends on whether the peers the controller picks for the new
		// WAL (most free first, by name) still hold a recycled, pinned 32 MiB
		// region or lost it in a crash of their own — each hit skips a 30 ms
		// registration — so it is a coin flip on the seed's victims. It is
		// still run, checked, and reported as app.kvstore.recovery_ms.
		p.Sleep(kvSettle)
		if err := k.crashRecover(p, faultAppID, 1); err != nil {
			return err
		}
		var done int64
		e.ops = func() int64 { return done }
		e.begin(p, win)
		k.mark()
		e.steadyBegin(p)
		ol := &openLoop{start: p.Now(), due: due, window: win / time.Duration(e.frac())}
		var wg simnet.WaitGroup
		wg.Add(faultPool)
		var firstErr error
		for w := 0; w < faultPool; w++ {
			p.GoOn(c.AppNode, fmt.Sprintf("writer%d", w), func(wp *simnet.Proc) {
				defer wg.Done(wp)
				buf := make([]byte, 128)
				for {
					n, dueAt, ok := ol.claim(wp)
					if !ok {
						return
					}
					r.attempted++
					sp := wp.StartSpan(benchLayer, opName)
					err := k.put(wp, keyIdx[n], uint64(n)+1, int(sizes[n]), buf)
					wp.EndSpan(sp)
					if err != nil {
						r.failed++
						if firstErr == nil {
							firstErr = err
						}
						continue
					}
					done++
					r.write.add(wp.Now() - dueAt)
					r.syncBytes += int64(ycsb.KeySize) + int64(sizes[n])
				}
			})
		}

		// Injector: the main proc walks the schedule.
		var restarts simnet.WaitGroup
		for i, ev := range plan {
			p.Sleep(ol.start + time.Duration(i+1)*spacing - p.Now())
			if err := e.inject(p, k, ev, restart, &restarts); err != nil {
				return err
			}
			if i+1 == faultEvents/4 {
				p.Sleep(ol.start + win/4 - p.Now())
				e.quarter()
			}
		}
		p.Sleep(ol.start + ol.window - p.Now())
		wg.Wait(p)
		restarts.Wait(p)
		if firstErr != nil {
			return fmt.Errorf("put: %w", firstErr)
		}
		// Gaps are read once every ack is in: the longest interval with no
		// acknowledged write between this event and the next.
		for i := range r.faults {
			f := &r.faults[i]
			f.gap = k.acks.longest(f.at, f.at+spacing)
		}
		r.failed += int64(ol.leftover)
		r.late, r.backlogMax = ol.late, ol.backlogMax
		r.thrOps, r.totalOps = done, done
		r.thrDur, r.syncDur = offered, offered
		r.userBytes = r.syncBytes
		e.steadyEnd(p)
		k.account()
		e.end()

		files, err := k.fs.ListNCL(p)
		if err != nil {
			return err
		}
		r.memFactor = e.memFactor(int64(len(files)) * k.cfg.WALRegion)
		// No top-up: the fixed offered rate already leaves the 16 MiB memtable
		// at the same fill on every seed, and filling it would cost a million
		// events.
		p.Sleep(kvSettle)
		if err := k.crashRecover(p, faultAppID, 2); err != nil {
			return err
		}
		r.recoveryUse = 1 // see the crash before the window
		return k.readBack(p)
	})
}

// fullGroup reports whether live is a full group that no longer counts a
// victim: ncl-lib keeps a crashed peer in LivePeers until its first failed
// completion comes back, so the count alone says "restored" too early.
func fullGroup(live []string, slots int, victims []string) bool {
	if len(live) < slots {
		return false
	}
	for _, l := range live {
		for _, v := range victims {
			if l == v {
				return false
			}
		}
	}
	return true
}

// inject crashes the event's victims, spawns their restart, and polls the
// active WAL until its live-peer count is back at the policy's slot count.
func (e *env) inject(p *simnet.Proc, k *kvStore, ev faultPlan, restart time.Duration, restarts *simnet.WaitGroup) error {
	lg := k.walLog()
	if lg == nil {
		return fmt.Errorf("active WAL is not an ncl file")
	}
	live := lg.LivePeers()
	slots := len(live)
	if slots < 3 {
		return fmt.Errorf("WAL has %d live peers before the event, want a full group", slots)
	}
	victims := []string{live[ev.pick[0]%slots]}
	if ev.victims == 2 {
		rest := make([]string, 0, slots-1)
		for _, n := range live {
			if n != victims[0] {
				rest = append(rest, n)
			}
		}
		victims = append(victims, rest[ev.pick[1]%len(rest)])
	}
	at := p.Now()
	for _, v := range victims {
		e.c.Sim.Node(v).Crash()
	}
	restarts.Add(1)
	p.Go("restart-peers", func(rp *simnet.Proc) {
		defer restarts.Done(rp)
		rp.Sleep(restart)
		for _, v := range victims {
			// A restart that cannot register yet is retried, as a supervisor
			// would.
			for e.c.RestartPeer(rp, v) != nil {
				rp.Sleep(10 * time.Millisecond)
			}
		}
	})
	f := faultEvent{at: at, victims: len(victims), overF: len(victims) > lg.Policy().F}
	deadline := at + restart*2
	for p.Now() < deadline {
		p.Sleep(faultPoll)
		if cur := k.walLog(); cur != nil && fullGroup(cur.LivePeers(), slots, victims) {
			f.restore = p.Now() - at
			break
		}
	}
	e.res.faults = append(e.res.faults, f)
	return nil
}
