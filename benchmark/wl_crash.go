package main

import (
	"fmt"
	"math/rand"
	"time"

	"splitft/internal/apps/litedb"
	"splitft/internal/core"
	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// crash-recover: eight cycles, kvstore and litedb alternating. Each cycle
// fills a WAL of fixed size through the application at a fixed open-loop
// rate, recording every acknowledged key -> value; crashes the application
// server; restarts it; mounts under the next fencing token; recovers; serves
// a first read and a first write; and reads back every acknowledged key.
// This uses NCL for reads instead of writes (ap-map lookup, connect, RDMA
// READ, peer sync and — for litedb's circular WAL — whole-region staging)
// plus application-level parsing, which dominates today.
const (
	crashCycles   = 8
	crashWAL      = 8 << 20 // WAL bytes per cycle at scale 1
	crashKVPool   = 8
	crashKVRate   = 230_000 // about 60 % of one embedded kvstore's write capacity
	crashLitePool = 4
	crashLiteRate = 3_000 // about 60 % of litedb's single-writer capacity
	liteFrame     = 4096 + 24
)

// fillOps is one cycle's pre-generated write stream.
type fillOps struct {
	due   []time.Duration
	keys  []int32
	sizes []uint8
}

func genFill(rng *rand.Rand, rate float64, n, keyspace int) fillOps {
	f := fillOps{due: poisson(rng, rate, time.Duration(float64(n)/rate*float64(time.Second))+time.Second)}
	if len(f.due) > n {
		f.due = f.due[:n]
	}
	f.keys = make([]int32, len(f.due))
	for i := range f.keys {
		f.keys[i] = int32(rng.Intn(keyspace))
	}
	f.sizes = writeSizes(rng, len(f.due))
	return f
}

// fill drives one cycle's open-loop write stream through put until the
// schedule is exhausted or full() reports the WAL reached its target.
func (e *env) fill(p *simnet.Proc, pool int, ops fillOps, cycle int,
	put func(wp *simnet.Proc, n int, buf []byte) error, full func() bool) error {

	r := &e.res
	e.steadyBegin(p)
	start := p.Now()
	ol := &openLoop{start: start, due: ops.due, window: 24 * time.Hour}
	var wg simnet.WaitGroup
	wg.Add(pool)
	var firstErr error
	var lastAck time.Duration
	for w := 0; w < pool; w++ {
		p.GoOn(e.c.AppNode, fmt.Sprintf("fill%d-%d", cycle, w), func(wp *simnet.Proc) {
			defer wg.Done(wp)
			buf := make([]byte, 128)
			for !full() {
				n, dueAt, ok := ol.claim(wp)
				if !ok {
					return
				}
				r.attempted++
				sp := wp.StartSpan(benchLayer, opName)
				err := put(wp, n, buf)
				wp.EndSpan(sp)
				if err != nil {
					r.failed++
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				lastAck = wp.Now()
				r.write.add(lastAck - dueAt)
				r.thrOps++
				r.totalOps++
				r.syncBytes += int64(ycsb.KeySize) + int64(ops.sizes[n])
			}
		})
	}
	wg.Wait(p)
	r.thrDur += lastAck - start
	r.late = append(r.late, ol.late...)
	if ol.backlogMax > r.backlogMax {
		r.backlogMax = ol.backlogMax
	}
	e.steadyEnd(p)
	return firstErr
}

// liteStore is an open litedb plus the check bookkeeping.
type liteStore struct {
	e    *env
	db   *litedb.DB
	cfg  litedb.Config
	led  *ledger
	keys []string
}

func (l *liteStore) put(p *simnet.Proc, i int32, tag uint64, size int, buf []byte) error {
	key := l.keys[i]
	val := valueFor(buf[:size], tag)
	l.led.invoke(key, tag, p.Now())
	sp := p.StartSpan("app", "lite.set")
	err := l.db.Set(p, key, val)
	p.EndSpan(sp)
	if err != nil {
		return err
	}
	l.led.ack(key, tag, p.Now())
	return nil
}

func (l *liteStore) get(p *simnet.Proc, i int32) ([]byte, bool, error) {
	sp := p.StartSpan("app", "lite.get")
	v, ok, err := l.db.Get(p, l.keys[i])
	p.EndSpan(sp)
	return v, ok, err
}

// crashRecover is litedb's form of the common tail (see env.crashRecover),
// followed by the read-back.
func (l *liteStore) crashRecover(p *simnet.Proc, appID string) error {
	d, err := l.e.crashRecover(p, appID, 1,
		func(fs *core.FS) (err error) {
			l.db, err = litedb.Recover(p, fs, l.cfg)
			return err
		},
		func() error { _, _, err := l.get(p, 0); return err },
		func() error {
			return l.put(p, int32(len(l.keys)-1), loadTag, ycsb.ValueSize, make([]byte, ycsb.ValueSize))
		})
	if err != nil {
		return err
	}
	l.e.res.liteRecov = append(l.e.res.liteRecov, d)
	return l.e.readBack(p, l.led, l.keys, l.get)
}

func runCrashRecover(e *env) error {
	r := &e.res
	target := int64(float64(crashWAL) * e.scale)
	cycles := crashCycles / e.frac()
	kvN := int(target/100) + 1024 // more than a WAL of ~133 B entries can take
	liteN := int(target / liteFrame)
	fills := make([]fillOps, cycles)
	for i := range fills {
		if i%2 == 0 {
			fills[i] = genFill(e.rng(int64(i)), crashKVRate, kvN, kvN/2)
		} else {
			fills[i] = genFill(e.rng(int64(i)), crashLiteRate, liteN, liteN/2+1)
		}
	}
	keys := keyTable(kvN/2 + 2)

	c := e.cluster(6, 0)
	return c.Run(func(p *simnet.Proc) error {
		e.ops = func() int64 { return r.totalOps }
		// About half a virtual second per cycle: fill, recovery, read-back.
		e.begin(p, crashCycles*e.scaled(500*time.Millisecond))
		for cycle := 0; cycle < cycles; cycle++ {
			ops := fills[cycle]
			var err error
			if cycle%2 == 0 {
				err = e.kvCycle(p, cycle, target, ops, keys)
			} else {
				err = e.liteCycle(p, cycle, target, ops, keys)
			}
			if err != nil {
				return fmt.Errorf("cycle %d: %w", cycle, err)
			}
			if cycle+1 == crashCycles/4 {
				e.quarter()
			}
		}
		e.end()
		r.syncDur = r.thrDur
		r.userBytes = r.syncBytes
		return nil
	})
}

func (e *env) kvCycle(p *simnet.Proc, cycle int, target int64, ops fillOps, keys []string) error {
	appID := fmt.Sprintf("crash-kv%d", cycle)
	cfg := e.kvConfig(0)
	cfg.Dir = fmt.Sprintf("/crkv%d", cycle)
	cfg.MemtableBytes = target * 2 // the fill never rotates the WAL
	cfg.WALRegion = target + target/4
	k, err := e.openKV(p, appID, cfg, keys)
	if err != nil {
		return err
	}
	k.mark()
	err = e.fill(p, crashKVPool, ops, cycle, func(wp *simnet.Proc, n int, buf []byte) error {
		return k.put(wp, ops.keys[n], uint64(cycle+1)<<40|uint64(n), int(ops.sizes[n]), buf)
	}, func() bool { return k.db.WAL().Size() >= target })
	if err != nil {
		return err
	}
	k.account()
	if k.db.WAL().Size() < target {
		return fmt.Errorf("fill ended at %d of %d WAL bytes", k.db.WAL().Size(), target)
	}
	if err := k.crashRecover(p, appID, 1); err != nil {
		return err
	}
	if err := k.readBack(p); err != nil {
		return err
	}
	k.db.Close(p)
	return nil
}

func (e *env) liteCycle(p *simnet.Proc, cycle int, target int64, ops fillOps, keys []string) error {
	appID := fmt.Sprintf("crash-lite%d", cycle)
	cfg := litedb.DefaultConfig()
	cfg.LiteDBCosts = e.prof.Apps.LiteDB
	cfg.Durability = litedb.SplitFT
	cfg.Path = fmt.Sprintf("/crlite%d/data.db", cycle)
	cfg.WALBytes = target + target/8 // one generation holds the fill
	cfg.NPages = int(target/4096) * 2
	fs, err := e.c.NewFS(p, appID, 0)
	if err != nil {
		return err
	}
	db, err := litedb.Open(p, fs, cfg)
	if err != nil {
		return err
	}
	l := &liteStore{e: e, db: db, cfg: cfg, led: newLedger(), keys: keys}
	err = e.fill(p, crashLitePool, ops, cycle, func(wp *simnet.Proc, n int, buf []byte) error {
		return l.put(wp, ops.keys[n], uint64(cycle+1)<<40|uint64(n), int(ops.sizes[n]), buf)
	}, func() bool { return false })
	if err != nil {
		return err
	}
	return l.crashRecover(p, appID)
}
