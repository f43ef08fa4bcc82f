package main

import (
	"fmt"
	"strconv"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// kv-ycsb-a: the paper's headline configuration (Fig 10). kvstore on
// SplitFT, 100 K rows behind a 20-thread RPC server, dfs block cache sized to
// 30 % of the dataset so reads miss. Phase 1 is 12 closed-loop clients (the
// capacity number); phase 2 offers a fixed Poisson rate of about 55 % of that
// capacity and times every op from its due instant (the latency numbers —
// the closed loop has no tail to speak of). It ends with the common crash ->
// recover -> read-back tail.
const (
	kvRows       = 100_000
	kvFiller     = 20_000 // keys beyond the dataset, for the top-up and first write
	kvClients    = 12
	kvOpenPool   = 64 // client procs serving the open-loop schedule
	kvThreads    = 20 // application-server threads
	kvOpenRate   = 300_000
	kvClosedWin  = 300 * time.Millisecond // at scale 1
	kvOpenWin    = 600 * time.Millisecond
	kvClosedRate = 700_000 // generous bound for pre-generating closed-loop ops
	kvAddr       = "benchkv"
)

// kvReq is one pre-generated client operation.
type kvReq struct {
	key  int32
	size uint8 // 0 = read
}

// genYCSB draws n YCSB-A operations over the first `rows` keys.
func genYCSB(e *env, stream int64, rows, n int) []kvReq {
	g := ycsb.NewGenerator(ycsb.WorkloadA, int64(rows), e.seed*7919+stream)
	sizes := writeSizes(e.rng(stream), n)
	ops := make([]kvReq, n)
	for i := range ops {
		op := g.Next()
		idx, _ := strconv.Atoi(op.Key[4:])
		ops[i].key = int32(idx)
		if op.Type != ycsb.Read {
			ops[i].size = sizes[i]
		}
	}
	return ops
}

const (
	kvOpRead = iota
	kvOpWrite
)

// serveKV registers the application server: a bounded thread pool in front
// of the store, one app span per request.
func serveKV(k *kvStore) {
	sem := simnet.NewSemaphore(kvThreads)
	c := k.e.c
	c.Sim.Net().Register(kvAddr, c.AppNode, func(p *simnet.Proc, req simnet.Msg) (simnet.Msg, error) {
		sem.Acquire(p)
		defer sem.Release(p)
		var resp simnet.Msg
		if req.U[0] == kvOpRead {
			sp := p.StartSpan("app", "kv.get")
			_, ok, err := k.db.Get(p, req.S[0])
			p.EndSpan(sp)
			resp.SetBool(0, ok)
			return resp, err
		}
		sp := p.StartSpan("app", "kv.put")
		err := k.db.Put(p, req.S[0], req.B)
		p.EndSpan(sp)
		return resp, err
	})
}

// kvClient issues one request over RPC from the client node and reports
// whether it succeeded. Writes go through the ledger.
type kvClient struct {
	k   *kvStore
	buf []byte
}

func (cl *kvClient) do(p *simnet.Proc, r kvReq, tag uint64) bool {
	k := cl.k
	c := k.e.c
	key := k.keys[r.key]
	m := simnet.Msg{S: [3]string{key}}
	sp := p.StartSpan(benchLayer, opName)
	defer p.EndSpan(sp)
	if r.size == 0 {
		m.U[0] = kvOpRead
		resp, err := c.Sim.Net().CallTimeout(p, c.ClientNode, kvAddr, m, 10*time.Second)
		return err == nil && resp.Bool(0)
	}
	m.U[0] = kvOpWrite
	// One op in flight per client and the store copies the value before it
	// replies, so the payload buffer is reused.
	m.B = valueFor(cl.buf[:r.size], tag)
	k.led.invoke(key, tag, p.Now())
	if _, err := c.Sim.Net().CallTimeout(p, c.ClientNode, kvAddr, m, 10*time.Second); err != nil {
		return false
	}
	now := p.Now()
	k.led.ack(key, tag, now)
	k.acks.ack(now)
	return true
}

func runKVYCSB(e *env) error {
	r := &e.res
	closedWin, openWin := e.scaled(kvClosedWin), e.scaled(kvOpenWin)
	// Inputs, all drawn before the simulation starts.
	keys := keyTable(kvRows + kvFiller)
	perClient := int(float64(kvClosedRate)*closedWin.Seconds())/kvClients/e.frac() + 1024
	closedOps := make([][]kvReq, kvClients)
	for i := range closedOps {
		closedOps[i] = genYCSB(e, int64(100+i), kvRows, perClient)
	}
	due, _ := e.arrivals(1, kvOpenRate, openWin)
	openOps := genYCSB(e, 2, kvRows, len(due))

	c := e.cluster(6, int64(kvRows)*rowBytes*30/100)
	return c.Run(func(p *simnet.Proc) error {
		k, err := e.openKV(p, kvAppID, e.kvConfig(kvRows), keys)
		if err != nil {
			return err
		}
		if err := k.load(p, kvRows); err != nil {
			return err
		}
		serveKV(k)

		var done int64 // client ops completed, for the quarter mark
		e.ops = func() int64 { return done }
		e.begin(p, closedWin+openWin)
		k.mark()
		e.steadyBegin(p)

		// Phase 1: closed loop.
		start := p.Now()
		end := start + closedWin/time.Duration(e.frac())
		var wg simnet.WaitGroup
		wg.Add(kvClients)
		var exhausted bool
		for i := 0; i < kvClients; i++ {
			i := i
			p.GoOn(c.ClientNode, fmt.Sprintf("client%d", i), func(cp *simnet.Proc) {
				defer wg.Done(cp)
				cl := &kvClient{k: k, buf: make([]byte, 128)}
				for n := 0; cp.Now() < end; n++ {
					if n >= len(closedOps[i]) {
						exhausted = true
						return
					}
					req := closedOps[i][n]
					ok := cl.do(cp, req, uint64(i+1)<<40|uint64(n))
					r.attempted++
					if !ok {
						r.failed++
						continue
					}
					if now := cp.Now(); now <= end {
						done++
						r.thrOps++
						if req.size > 0 {
							r.syncBytes += int64(ycsb.KeySize) + int64(req.size)
						}
					}
				}
			})
		}
		e.window(p, closedWin, true)
		r.thrDur = end - start
		r.syncDur = r.thrDur
		wg.Wait(p)
		if exhausted {
			return fmt.Errorf("closed-loop clients ran out of pre-generated ops")
		}

		// Phase 2: open loop at a fixed rate, latency from the due instant.
		ol := &openLoop{start: p.Now(), due: due, window: openWin / time.Duration(e.frac())}
		wg.Add(kvOpenPool)
		for i := 0; i < kvOpenPool; i++ {
			p.GoOn(c.ClientNode, fmt.Sprintf("open%d", i), func(cp *simnet.Proc) {
				defer wg.Done(cp)
				cl := &kvClient{k: k, buf: make([]byte, 128)}
				for {
					n, dueAt, ok := ol.claim(cp)
					if !ok {
						return
					}
					req := openOps[n]
					r.attempted++
					if !cl.do(cp, req, uint64(kvClients+1)<<40|uint64(n)) {
						r.failed++
						continue
					}
					done++
					if req.size > 0 {
						r.write.add(cp.Now() - dueAt)
						r.userBytes += int64(ycsb.KeySize) + int64(req.size)
					} else {
						r.read.add(cp.Now() - dueAt)
					}
				}
			})
		}
		e.window(p, openWin, false)
		wg.Wait(p)
		r.failed += int64(ol.leftover)
		r.late, r.backlogMax = ol.late, ol.backlogMax
		r.userBytes += r.syncBytes
		r.totalOps = done
		e.steadyEnd(p)
		k.account()
		e.end()

		files, err := k.fs.ListNCL(p)
		if err != nil {
			return err
		}
		r.memFactor = e.memFactor(int64(len(files)) * k.cfg.WALRegion)
		if err := k.topUp(p, kvRows); err != nil {
			return err
		}
		if err := k.crashRecover(p, kvAppID, 1); err != nil {
			return err
		}
		return k.readBack(p)
	})
}

// memFactor is peer memory reserved per byte of log capacity.
func (e *env) memFactor(capacity int64) float64 {
	if capacity == 0 {
		return 0
	}
	var reserved int64
	for _, pr := range e.c.Peers {
		reserved += e.prof.Peer.LendableMem - pr.Avail()
	}
	return float64(reserved) / float64(capacity)
}
