package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"splitft/internal/core"
	"splitft/internal/simnet"
)

// dfs-bulk-sync: no NCL. One writer creates files with sizes from the
// background-write range (64 KB - 64 MB; extent-backed above 1 MB, flat at or
// below), Write+Sync each, while four closed-loop readers issue random 4 KB
// Preads over a set of already-synced files four times the size of the
// client cache. dfs (flat path and extent chains), the controller's extent
// leases and rpc do the work; ncl and rdma do none, so the predicted effect
// of any NCL or RDMA change here is zero.
//
// The writer's sizes are a fixed multiset in a seed-shuffled order: the
// window is "until the list is written", so sync_mbps and the write
// percentiles compare like with like on every seed.
const (
	dfsAppID   = "benchdfs"
	dfsReaders = 4
	dfsReadLen = 4096
	dfsProbes  = 50 // 128 B Write+Sync calibration probes during set-up
	dfsScan    = 32 // ranges the recovery scan reads
)

// dfsClasses is the writer's size multiset at scale 1 (392 MiB, 1013 files).
// The extent plane keeps three in-memory replicas of every byte for the
// life of the simulation, so the byte total, not the event count, is what
// this workload costs the host.
var dfsClasses = []struct {
	size  int
	count int
}{
	{64 << 10, 640}, {256 << 10, 256}, {1 << 20, 96}, {4 << 20, 16}, {16 << 20, 4}, {64 << 20, 1},
}

// dfsReadSet is the readers' working set: sixty 1 MiB files against a 15 MiB
// client cache. They are flat files because the flat path reads through the
// bounded block cache; an extent-backed handle keeps every range it has
// fetched resident with no bound, so its miss rate cannot be held fixed.
// (The extent read path is exercised by the read-back after the crash.)
var dfsReadSet = []struct {
	size  int
	count int
}{
	{1 << 20, 60},
}

const dfsCache = 15 << 20

type dfsFileSpec struct {
	path string
	size int
	off  int // content = pool[off : off+size]
}

func dfsFlags(size int) core.OpenFlag {
	if size > 1<<20 {
		return core.O_CREATE | core.O_EXTENT
	}
	return core.O_CREATE
}

// writeFile creates, writes and syncs one file and returns how long the
// caller waited for it to be durable.
func writeFile(p *simnet.Proc, fs *core.FS, pool []byte, s dfsFileSpec) (time.Duration, error) {
	t0 := p.Now()
	f, err := fs.OpenFile(p, s.path, dfsFlags(s.size), 0)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(p, pool[s.off:s.off+s.size]); err != nil {
		return 0, err
	}
	if err := f.Sync(p); err != nil {
		return 0, err
	}
	d := p.Now() - t0
	return d, f.Close(p)
}

func runDFSBulk(e *env) error {
	r := &e.res
	rng := e.rng(1)
	// Writer list: the multiset scaled by the common factor, shuffled.
	var files []dfsFileSpec
	maxSize := 0
	for _, cl := range dfsClasses {
		n := int(float64(cl.count)*e.scale + 0.5)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			files = append(files, dfsFileSpec{size: cl.size})
		}
		if cl.size > maxSize {
			maxSize = cl.size
		}
	}
	rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
	for i := range files {
		files[i].path = fmt.Sprintf("/bulk/f%05d", i)
		files[i].off = rng.Intn(1 << 20)
	}
	total, quarter := len(files), len(files)/4
	if e.traced {
		files = files[:quarter]
	}
	var readSet []dfsFileSpec
	for _, cl := range dfsReadSet {
		for i := 0; i < cl.count; i++ {
			readSet = append(readSet, dfsFileSpec{
				path: fmt.Sprintf("/set/s%d-%02d", cl.size, i), size: cl.size, off: rng.Intn(1 << 20)})
		}
	}
	pool := make([]byte, maxSize+1<<20)
	rng.Read(pool)
	// Recovery scan: ranges of extent-backed bulk files that the restarted
	// instance reads and checks before it serves, 4 KB - 1 MB each. Besides
	// timing the extent read path, their seed-drawn lengths keep recovery_ms
	// from being the same sum of fixed metadata costs on every seed.
	type scanRange struct{ file, off, n int }
	var scan []scanRange
	var large []int
	for i, f := range files {
		if f.size > 1<<20 {
			large = append(large, i)
		}
	}
	for i, srng := 0, e.rng(5); i < dfsScan && len(large) > 0; i++ {
		f := large[srng.Intn(len(large))]
		n := int(4096 * math.Exp(srng.Float64()*math.Log(256)))
		scan = append(scan, scanRange{f, srng.Intn(files[f].size - n + 1), n})
	}
	// Reader picks: (file, 4 KB-aligned offset), one stream per reader.
	type pick struct{ file, off int32 }
	picks := make([][]pick, dfsReaders)
	for i := range picks {
		prng := e.rng(int64(10 + i))
		picks[i] = make([]pick, 1<<16)
		for j := range picks[i] {
			f := prng.Intn(len(readSet))
			picks[i][j] = pick{int32(f), int32(prng.Intn(readSet[f].size/dfsReadLen) * dfsReadLen)}
		}
	}

	c := e.cluster(6, dfsCache)
	return c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, dfsAppID, 0)
		if err != nil {
			return err
		}
		for _, s := range readSet {
			if _, err := writeFile(p, fs, pool, s); err != nil {
				return fmt.Errorf("read set %s: %w", s.path, err)
			}
		}
		// Calibration probe: 128 B Write+Sync on a flat file.
		pf, err := fs.OpenFile(p, "/probe", core.O_CREATE, 0)
		if err != nil {
			return err
		}
		for i := 0; i < dfsProbes; i++ {
			t0 := p.Now()
			if _, err := pf.Write(p, pool[i:i+128]); err != nil {
				return err
			}
			if err := pf.Sync(p); err != nil {
				return err
			}
			r.dfsSyncProbe.add(p.Now() - t0)
		}
		handles := make([]core.File, len(readSet))
		for i, s := range readSet {
			if handles[i], err = fs.OpenFile(p, s.path, 0, 0); err != nil {
				return err
			}
		}

		var done int64
		e.ops = func() int64 { return done }
		// The writer needs about 3.2 ms of virtual time per file on average.
		e.begin(p, time.Duration(total)*3200*time.Microsecond)
		e.steadyBegin(p)
		start := p.Now()
		writerDone := false
		var wg simnet.WaitGroup
		wg.Add(dfsReaders)
		var readErr error
		for i := 0; i < dfsReaders; i++ {
			i := i
			p.GoOn(c.AppNode, fmt.Sprintf("reader%d", i), func(rp *simnet.Proc) {
				defer wg.Done(rp)
				buf := make([]byte, dfsReadLen)
				for n := 0; !writerDone; n++ {
					pk := picks[i][n%len(picks[i])]
					s := readSet[pk.file]
					r.attempted++
					sp := rp.StartSpan(benchLayer, opName)
					t0 := rp.Now()
					_, err := handles[pk.file].Pread(rp, buf, int64(pk.off))
					d := rp.Now() - t0
					rp.EndSpan(sp)
					want := pool[s.off+int(pk.off) : s.off+int(pk.off)+dfsReadLen]
					if err != nil || !bytes.Equal(buf, want) {
						r.failed++
						if readErr == nil {
							readErr = fmt.Errorf("pread %s@%d: mismatch or error: %v", s.path, pk.off, err)
						}
						continue
					}
					done++
					r.read.add(d)
					r.preadEntry.add(d)
				}
			})
		}
		for i, s := range files {
			r.attempted++
			sp := p.StartSpan(benchLayer, opName)
			d, err := writeFile(p, fs, pool, s)
			p.EndSpan(sp)
			if err != nil {
				return fmt.Errorf("bulk %s: %w", s.path, err)
			}
			done++
			r.write.add(d)
			r.bulkSync.add(d)
			r.syncBytes += int64(s.size)
			if i+1 == quarter {
				e.quarter()
			}
		}
		writerDone = true
		r.thrDur = p.Now() - start
		r.syncDur = r.thrDur
		wg.Wait(p)
		if readErr != nil {
			return readErr
		}
		r.thrOps, r.totalOps = done, done
		r.userBytes = r.syncBytes
		e.steadyEnd(p)
		e.end()

		// Tail: crash, remount, reopen the read set and scan, serve a first
		// read, make a first write durable, then read every synced file back.
		_, err = e.crashRecover(p, dfsAppID, 1,
			func(nfs *core.FS) error {
				fs = nfs
				for i, s := range readSet {
					if handles[i], err = fs.OpenFile(p, s.path, 0, 0); err != nil {
						return fmt.Errorf("reopen %s: %w", s.path, err)
					}
				}
				for _, sr := range scan {
					s := files[sr.file]
					f, err := fs.OpenFile(p, s.path, 0, 0)
					if err != nil {
						return fmt.Errorf("scan %s: %w", s.path, err)
					}
					got := make([]byte, sr.n)
					if _, err := f.Pread(p, got, int64(sr.off)); err != nil {
						return fmt.Errorf("scan %s: %w", s.path, err)
					}
					if !bytes.Equal(got, pool[s.off+sr.off:s.off+sr.off+sr.n]) {
						r.lostAcked++
					}
					if err := f.Close(p); err != nil {
						return err
					}
				}
				return nil
			},
			func() error { _, err := handles[0].Pread(p, make([]byte, dfsReadLen), 0); return err },
			func() error {
				_, err := writeFile(p, fs, pool, dfsFileSpec{path: "/bulk/after", size: 64 << 10})
				return err
			})
		if err != nil {
			return err
		}
		return verifyFiles(p, fs, pool, append(readSet, files...), r)
	})
}

// verifyFiles reads every file back through the remounted client and counts
// the ones whose durable content differs from what was acknowledged.
func verifyFiles(p *simnet.Proc, fs *core.FS, pool []byte, files []dfsFileSpec, r *result) error {
	var got []byte
	for _, s := range files {
		f, err := fs.OpenFile(p, s.path, 0, 0)
		if err != nil {
			r.lostAcked++
			continue
		}
		if cap(got) < s.size {
			got = make([]byte, s.size)
		}
		t0 := p.Now()
		n, err := f.Pread(p, got[:s.size], 0)
		r.readBackLat.add(p.Now() - t0)
		if err != nil || n != s.size || !bytes.Equal(got[:n], pool[s.off:s.off+s.size]) {
			r.lostAcked++
		}
		r.readBack++
		if err := f.Close(p); err != nil {
			return err
		}
	}
	return nil
}
