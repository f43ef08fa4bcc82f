package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"splitft/internal/core"
	"splitft/internal/simnet"
)

// log-append-open: no application. Eight worker procs on the app node append
// to one O_NCL|O_APPEND file through core.File.Write+Sync under the log
// mutex any WAL has, sizes drawn log-uniformly from the paper's log-write
// range (128 B - 8 KB), at a fixed Poisson rate of about 40 % of what one log
// sustains. The 4 MiB region fills every few thousand appends, so release +
// open (controller CAS, peer set-up, MR registration) sits on the write
// path: p50 is the RDMA record path, the tail is queueing plus rotation.
const (
	logAppID   = "benchlog"
	logWorkers = 8
	logRegion  = 4 << 20
	// 40 % of the 112.8 K appends/s eight closed-loop workers sustain with
	// rotations included. At 60 % half the appends queue behind a rotation,
	// so the median sits on the knee between queued and unqueued appends and
	// moves 5 % from seed to seed; at 40 % it is the record path.
	logRate    = 45_000
	logWarm    = 6_000                   // warm-up appends before the window (about three rotations)
	logWin     = 4000 * time.Millisecond // at scale 1
	logMinSize = 128
	logMaxSize = 8192
	logPool    = 1 << 20 // payload bytes are slices of one random pool
	logFill    = 2 << 20 // file length at which the tail crashes the app
	logProbes  = 400     // 128 B calibration appends during set-up
	logCrashes = 32      // crash -> recover rounds after the window, at scale 1
)

// logRec is one pre-generated append: payload = pool[off : off+size].
type logRec struct {
	off  int32
	size int32
}

type logState struct {
	e    *env
	fs   *core.FS
	f    core.File
	gen  int
	mu   simnet.Mutex
	pool []byte
	recs []logRec // records acknowledged into the current file, in order
}

func logPath(gen int) string { return fmt.Sprintf("wal-%06d.log", gen) }

func (s *logState) open(p *simnet.Proc) error {
	f, err := s.fs.OpenFile(p, logPath(s.gen), core.O_NCL|core.O_CREATE|core.O_APPEND, logRegion)
	if err != nil {
		return err
	}
	s.f, s.recs = f, s.recs[:0]
	return nil
}

// rotate releases the full log and opens its successor.
func (s *logState) rotate(p *simnet.Proc) error {
	if err := s.fs.Unlink(p, logPath(s.gen)); err != nil {
		return err
	}
	s.gen++
	return s.open(p)
}

// append makes one record durable. The caller holds s.mu.
func (s *logState) append(p *simnet.Proc, r logRec) error {
	if s.f.Size()+int64(r.size) > logRegion {
		if err := s.rotate(p); err != nil {
			return err
		}
	}
	if _, err := s.f.Write(p, s.pool[r.off:r.off+r.size]); err != nil {
		return err
	}
	if err := s.f.Sync(p); err != nil {
		return err
	}
	s.recs = append(s.recs, r)
	return nil
}

func runLogAppend(e *env) error {
	r := &e.res
	win := e.scaled(logWin)
	pool := make([]byte, logPool+logMaxSize)
	e.rng(2).Read(pool)
	due, offered := e.arrivals(1, logRate, win)
	recs := make([]logRec, len(due))
	span := math.Log(float64(logMaxSize) / logMinSize)
	for i, rng := 0, e.rng(3); i < len(recs); i++ {
		recs[i].size = int32(logMinSize * math.Exp(rng.Float64()*span))
		recs[i].off = int32(rng.Intn(logPool))
	}

	c := e.cluster(6, 0)
	return c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, logAppID, 0)
		if err != nil {
			return err
		}
		s := &logState{e: e, fs: fs, pool: pool}
		if err := s.open(p); err != nil {
			return err
		}
		// Calibration probe: uncontended 128 B appends, timed one by one.
		for i := 0; i < logProbes; i++ {
			t0 := p.Now()
			if err := s.append(p, logRec{off: int32(i), size: 128}); err != nil {
				return err
			}
			r.appendProbe.add(p.Now() - t0)
		}
		// Warm-up: rotate a few times so sessions, the peer pool and the
		// allocator have reached their steady state before the window opens.
		for i := 0; i < logWarm; i++ {
			if err := s.append(p, logRec{off: int32(i) * 2048 % logPool, size: 2048}); err != nil {
				return err
			}
		}

		var done int64
		e.ops = func() int64 { return done }
		e.begin(p, win)
		e.steadyBegin(p)
		ol := &openLoop{start: p.Now(), due: due, window: win / time.Duration(e.frac())}
		var wg simnet.WaitGroup
		wg.Add(logWorkers)
		var firstErr error
		for w := 0; w < logWorkers; w++ {
			p.GoOn(c.AppNode, fmt.Sprintf("appender%d", w), func(wp *simnet.Proc) {
				defer wg.Done(wp)
				for {
					n, dueAt, ok := ol.claim(wp)
					if !ok {
						return
					}
					r.attempted++
					sp := wp.StartSpan(benchLayer, opName)
					s.mu.Lock(wp)
					err := s.append(wp, recs[n])
					s.mu.Unlock(wp)
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
					r.syncBytes += int64(recs[n].size)
				}
			})
		}
		e.window(p, win, true)
		wg.Wait(p)
		if firstErr != nil {
			return fmt.Errorf("append: %w", firstErr)
		}
		r.failed += int64(ol.leftover)
		r.late, r.backlogMax = ol.late, ol.backlogMax
		r.thrOps, r.totalOps, r.userBytes = done, done, r.syncBytes
		r.thrDur, r.syncDur = offered, offered
		e.steadyEnd(p)
		r.memFactor = e.memFactor(logRegion)
		e.end()

		// Tail: a fresh log filled to a fixed length, crash, recover, verify —
		// many times over, because one recovery of a 2 MiB log is four
		// controller round trips whose phase against the raft group commit
		// moves a single sample by a fifth.
		for round := 1; round <= logCrashes/e.frac(); round++ {
			if err := s.rotate(p); err != nil {
				return err
			}
			for i := int32(0); s.f.Size() < logFill; i++ {
				if err := s.append(p, logRec{off: (i + int32(round)) * 4096 % logPool, size: 4096}); err != nil {
					return err
				}
			}
			if err := s.crashRecover(p, int64(round)); err != nil {
				return fmt.Errorf("crash %d: %w", round, err)
			}
		}
		return nil
	})
}

// crashRecover runs the common tail (env.crashRecover) for the log: reopen it
// under the next fencing token (which runs NCL recovery), read the first
// 4 KB, append 128 B, then compare every acknowledged record with what the
// recovered file holds.
func (s *logState) crashRecover(p *simnet.Proc, fencing int64) error {
	var got []byte
	recs := s.recs
	_, err := s.e.crashRecover(p, logAppID, fencing,
		func(fs *core.FS) (err error) {
			s.fs, s.recs = fs, nil
			s.f, err = fs.OpenFile(p, logPath(s.gen), core.O_NCL|core.O_APPEND, logRegion)
			return err
		},
		func() error { _, err := s.f.Pread(p, make([]byte, 4096), 0); return err },
		func() error {
			// Read the whole file from the start: the content to verify, and
			// the cursor left at the end for the appends that follow.
			got = make([]byte, s.f.Size())
			if _, err := s.f.Read(p, got); err != nil {
				return err
			}
			return s.append(p, logRec{size: 128})
		})
	if err != nil {
		return err
	}
	r := &s.e.res
	var off int64
	for _, rec := range recs {
		end := off + int64(rec.size)
		if end > int64(len(got)) || !bytes.Equal(got[off:end], s.pool[rec.off:rec.off+rec.size]) {
			r.lostAcked++
		}
		off = end
		r.readBack++
	}
	return nil
}
