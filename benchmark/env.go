package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// hostSnap is a reading of the host-side counters at one instant of a run.
type hostSnap struct {
	wall    time.Time
	events  uint64
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // cumulative GC cpu-seconds
}

var gcSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapHost(s *simnet.Sim) hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcSample)
	h := hostSnap{wall: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if gcSample[0].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = gcSample[0].Value.Float64()
	}
	if s != nil {
		h.events = s.Events()
	}
	return h
}

// peakRSSMB is the process's high-water resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// faultEvent is one injected failure and what the workload observed around it.
type faultEvent struct {
	at      time.Duration // virtual instant of the crash
	victims int
	overF   bool          // more victims than the policy tolerates
	gap     time.Duration // longest interval with no acked write around it
	restore time.Duration // crash -> log back at its full slot count (0 = n/a)
}

// result is everything one run of one workload measured. Virtual-clock
// fields repeat exactly for a given (workload, seed, scale); host fields
// do not.
type result struct {
	// Throughput: ops completed in thrDur of closed-loop (or offered-rate)
	// window, and user bytes made durable in syncDur.
	thrOps    int64
	thrDur    time.Duration
	syncBytes int64
	syncDur   time.Duration

	write, read lat // client-observed latency, open-loop phases from due
	readBackLat lat // reads of the post-recovery read-back
	late        lat // open-loop dispatch - due
	backlogMax  int

	recoveries  []time.Duration // RestartApp -> first op served, every crash
	recoveryUse int             // how many of them, from the first, recovery_ms averages (0 = all)
	faults      []faultEvent

	attempted, failed int64
	lostAcked         int64
	readBack          int64 // keys / bytes ranges verified after recovery

	// Outside timings of public calls (the "entry" layer).
	newFS, appRecover, firstOp []time.Duration
	appendProbe                lat // 128 B uncontended Write+Sync
	dfsSyncProbe               lat // 128 B dfs Write+Sync
	bulkSync                   lat // one bulk file Write+Sync
	preadEntry                 lat // one 4 KB Pread

	// Application counters.
	kvOps, kvBatches   int64
	stall              time.Duration
	flushes, compacts  int64
	kvRecov, liteRecov []time.Duration
	memFactor          float64
	userBytes          int64 // user payload bytes written in the steady ranges

	// Host clock.
	setup      time.Duration
	winStart   hostSnap
	winEnd     hostSnap
	ticks      []time.Time // wall clock at the window's slice edges, ends included
	quarterOps int64
	quarterEv  uint64
	totalOps   int64 // every client op the window completed

	// Tracing.
	steady     [][2]int      // collector index ranges of the steady phases
	steadyVirt time.Duration // virtual time those ranges span
	winMark    int           // collector length at window start
}

// env is one run of one workload: its inputs (seed, scale, tracing), the
// cluster, and the result being filled in.
type env struct {
	seed   int64
	scale  float64 // common factor on every virtual window (seconds / 10)
	traced bool
	col    *trace.Collector
	prof   *model.Profile
	c      *harness.Cluster
	t0     time.Time
	res    result

	steadyFrom int // open steady range, -1 when none
	steadyAt   time.Duration
	ops        func() int64 // ops completed so far, for the quarter mark
}

func newEnv(seed int64, scale float64, traced bool) *env {
	e := &env{seed: seed, scale: scale, traced: traced, prof: model.Baseline(), steadyFrom: -1}
	if traced {
		e.col = trace.New()
	}
	return e
}

// rng returns the input generator for one named stream of this run's seed.
// Every input of a workload is drawn from these before the simulation
// starts, so the same seed gives the same inputs.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// scaled applies the common window factor.
func (e *env) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * e.scale)
}

// frac is the share of the measured window this run executes: a traced run
// stops at the quarter mark so its spans fit in memory.
func (e *env) frac() int {
	if e.traced {
		return 4
	}
	return 1
}

// cluster builds the testbed. cache > 0 overrides the dfs client cache.
func (e *env) cluster(peers int, cache int64) *harness.Cluster {
	opts := harness.Options{
		Seed: e.seed, NumPeers: peers, PeerMem: 1 << 30, AppCores: 10,
		Profile: e.prof, Trace: e.col,
	}
	if cache > 0 {
		params := e.prof.DFS
		params.CacheCapacity = cache
		opts.DFSParams = &params
	}
	e.c = harness.New(opts)
	return e.c
}

// begin opens the measured window: everything before it was set-up. expect
// is the workload's estimate of the window's virtual length (see slices).
func (e *env) begin(p *simnet.Proc, expect time.Duration) {
	e.res.winMark = e.col.Len()
	e.res.winStart = snapHost(e.c.Sim)
	e.res.setup = e.res.winStart.wall.Sub(e.t0)
	e.res.ticks = append(e.res.ticks[:0], e.res.winStart.wall)
	period := expect / slices
	e.c.Sim.Go("bench-ticker", func(tp *simnet.Proc) {
		for {
			tp.Sleep(period)
			if !e.res.winEnd.wall.IsZero() {
				return
			}
			e.res.ticks = append(e.res.ticks, time.Now())
		}
	})
}

// end closes the measured window.
func (e *env) end() {
	e.res.winEnd = snapHost(e.c.Sim)
	e.res.ticks = append(e.res.ticks, e.res.winEnd.wall)
}

// crashRecover is the tail every workload ends with: crash the application
// server, restart it, mount under the given fencing token, run the
// application's recovery, serve a first read and acknowledge a first write.
// It fills the entry timings, recovery_ms (RestartApp -> first read served,
// which it also returns) and the app-crash fault event (crash -> first write
// acknowledged; the driver quiesces before it crashes, so the crash instant,
// not the last ack, opens the interval). Callers follow it with a read-back,
// which fills lost_acked.
func (e *env) crashRecover(p *simnet.Proc, appID string, fencing int64,
	reopen func(fs *core.FS) error, firstRead, firstWrite func() error) (time.Duration, error) {

	r := &e.res
	crashAt := p.Now()
	e.c.CrashApp()
	e.c.RestartApp()
	t0 := p.Now()
	fs, err := e.c.NewFS(p, appID, fencing)
	if err != nil {
		return 0, fmt.Errorf("NewFS after crash: %w", err)
	}
	t1 := p.Now()
	if err := reopen(fs); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	t2 := p.Now()
	if err := firstRead(); err != nil {
		return 0, fmt.Errorf("first read after recovery: %w", err)
	}
	t3 := p.Now()
	r.newFS = append(r.newFS, t1-t0)
	r.appRecover = append(r.appRecover, t2-t1)
	r.firstOp = append(r.firstOp, t3-t2)
	r.recoveries = append(r.recoveries, t3-t0)
	if err := firstWrite(); err != nil {
		return 0, fmt.Errorf("first write after recovery: %w", err)
	}
	r.faults = append(r.faults, faultEvent{at: crashAt, gap: p.Now() - crashAt})
	return t3 - t0, nil
}

// readBack reads, through get, every key the ledger has seen and counts the
// ones whose recovered value the acknowledged history does not allow.
func (e *env) readBack(p *simnet.Proc, led *ledger, keys []string, get func(*simnet.Proc, int32) ([]byte, bool, error)) error {
	r := &e.res
	for i, key := range keys {
		if _, seen := led.keys[key]; !seen {
			continue
		}
		t0 := p.Now()
		v, ok, err := get(p, int32(i))
		if err != nil {
			return fmt.Errorf("read-back %s: %w", key, err)
		}
		r.readBackLat.add(p.Now() - t0)
		tag, intact := tagOf(v)
		if !led.valid(key, tag, ok) || (ok && !intact) {
			r.lostAcked++
		}
		r.readBack++
	}
	return nil
}

// quarter records (ops completed, events dispatched) at the quarter mark. A
// traced run ends its window here and must reproduce the untraced reading.
func (e *env) quarter() {
	e.res.quarterOps = e.ops()
	e.res.quarterEv = e.c.Sim.Events()
}

// steadyBegin / steadyEnd bracket a phase whose spans feed the generic
// per-layer budget (client ops in flight, no crash or recovery).
func (e *env) steadyBegin(p *simnet.Proc) {
	e.steadyFrom = e.col.Len()
	e.steadyAt = p.Now()
}

func (e *env) steadyEnd(p *simnet.Proc) {
	e.res.steady = append(e.res.steady, [2]int{e.steadyFrom, e.col.Len()})
	e.res.steadyVirt += p.Now() - e.steadyAt
	e.steadyFrom = -1
}

// openGuard is how long before its window closes an open-loop schedule
// stops offering arrivals. An op still queued when the window closes counts
// as failed; the guard lets the backlog of one ordinary stall (a log
// rotation, a peer replacement) drain, so only a backlog that is growing —
// offered load above capacity — leaves ops behind.
const openGuard = 50 * time.Millisecond

// arrivals draws this run's Poisson schedule for a window of length w from
// the given input stream, and returns it with the length of time it offers
// load for. A traced run's schedule is the untraced one's first quarter.
func (e *env) arrivals(stream int64, rate float64, w time.Duration) ([]time.Duration, time.Duration) {
	offered := w - openGuard
	due := poisson(e.rng(stream), rate, offered)
	if e.traced {
		offered = w / 4
		due = cutBefore(due, offered)
	}
	return due, offered
}

// slices is roughly how many parts the measured window is cut into for the
// host clock. begin starts a ticker proc that records the wall clock every
// expect/slices of virtual time, expect being the workload's own estimate
// of its window. Repeats of a run reach each of those instants having done
// exactly the same work, so the fastest repeat can be chosen slice by slice:
// interference that hits one repeat's third slice and another's ninth is
// removed from both, which a whole-window minimum cannot do. Slices stay tens
// of milliseconds of host time long, so each still holds its share of
// garbage collection.
const slices = 100

// window sleeps the main proc through a timed window of length w, taking
// the quarter mark on the way when mark is set. Traced runs stop at the
// mark.
func (e *env) window(p *simnet.Proc, w time.Duration, mark bool) {
	p.Sleep(w / 4)
	if mark {
		e.quarter()
	}
	if !e.traced {
		p.Sleep(w - w/4)
	}
}

// valueFor fills buf with the value identified by tag: the tag in the first
// eight bytes, a pattern derived from it after.
func valueFor(buf []byte, tag uint64) []byte {
	for i := 0; i < 8 && i < len(buf); i++ {
		buf[i] = byte(tag >> (8 * i))
	}
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(tag*131 + uint64(i)*7)
	}
	return buf
}

// tagOf decodes a value written by valueFor and reports whether the rest of
// it matches the pattern.
func tagOf(v []byte) (tag uint64, intact bool) {
	if len(v) < 8 {
		return 0, false
	}
	for i := 0; i < 8; i++ {
		tag |= uint64(v[i]) << (8 * i)
	}
	for i := 8; i < len(v); i++ {
		if v[i] != byte(tag*131+uint64(i)*7) {
			return tag, false
		}
	}
	return tag, true
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}
