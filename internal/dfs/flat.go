package dfs

import (
	"time"

	"splitft/internal/simnet"
)

// The flat path's block cache holds cacheBlock-sized blocks, and a miss on
// a sequential read fetches a readaheadWindow from the missed block on.
const (
	cacheBlock      = 64 << 10
	readaheadWindow = 4 << 20
)

// flatBackend is the CephFS-like primary-copy path: writes join the mount's
// writeback plane (dirty total, stalls, throttle), a flush reserves the
// cluster's shared storage pipe and lands the bytes inline on the inode,
// and reads are priced through the mount's block cache with readahead. The
// view is a full copy of the inode taken at open, so load never moves
// content — it only charges for it.
type flatBackend struct {
	f          *File
	lastSeqEnd int64 // where the previous cached read ended (readahead)
}

func (b *flatBackend) admit(p *simnet.Proc, off, n int64) {
	cl := b.f.client
	pm := cl.cluster.params
	// Stall if writeback can't keep up (the weak-mode penalty).
	for cl.dirty > pm.DirtyHighWater {
		start := p.Now()
		cl.flushNow.Send(p, struct{}{})
		cl.stallMu.Lock(p)
		cl.stallCond.Wait(p)
		cl.stallMu.Unlock(p)
		cl.StallTime += p.Now() - start
	}
	cost := localCopyCost(pm, n)
	if pm.WritebackThrottleMax > 0 && cl.dirty > 0 {
		ratio := float64(cl.dirty) / float64(pm.DirtyHighWater)
		if ratio > 1 {
			ratio = 1
		}
		cost += time.Duration(ratio * float64(pm.WritebackThrottleMax))
	}
	p.Sleep(cost)
}

// commit pays bandwidth on the storage pipe, plus the replication round
// trip when it is an fsync, then applies the spans to the inode.
func (b *flatBackend) commit(p *simnet.Proc, spans []span, n int64, foreground bool) error {
	f, cl := b.f, b.f.client
	pm := cl.cluster.params
	cl.dirty -= n
	wait := cl.cluster.reserve(n, pm.WriteBandwidth) - p.Now()
	if foreground {
		wait += pm.SyncFixed
	}
	p.Sleep(wait)
	if cl.dead {
		return errDiedInFlush
	}
	// Apply the spans durably to this handle's inode (see File.df). The
	// view may have grown past some spans' snapshot; copy what the view
	// holds now (writeback semantics). If the file was unlinked while the
	// flush was in flight the inode is orphaned and the data simply goes
	// nowhere, like kernel writeback to a deleted inode.
	df := f.df
	for _, s := range spans {
		df.data = grow(df.data, s.end)
		copy(df.data[s.start:s.end], f.view[s.start:s.end])
	}
	cl.cluster.BytesWritten += n
	if !foreground {
		cl.FlushedBytes += n
	}
	// Recently written data is cache-resident — but only while the path
	// still names this inode. A file renamed away (or replaced) mid-flush
	// must not warm cache blocks for whatever now lives at the old path.
	if cl.cluster.files[f.path] == df {
		for _, s := range spans {
			cl.insertBlocks(f.path, s.start, s.end)
		}
	}
	return nil
}

func (b *flatBackend) load(p *simnet.Proc, off, n int64) error {
	cl := b.f.client
	pm := cl.cluster.params
	if cl.DirectIO {
		done := cl.cluster.reserve(n, pm.ReadBandwidth)
		p.Sleep(pm.ReadFixed + (done - p.Now()))
		cl.cluster.BytesRead += n
		return nil
	}
	// Through the block cache with sequential readahead.
	const bs = cacheBlock
	var missBytes int64
	for blk := off / bs; blk*bs < off+n; blk++ {
		if cl.cachedBlock(blockKey{path: b.f.path, idx: blk}) {
			continue
		}
		// Miss: fetch this block, or a whole readahead window if the access
		// is sequential.
		fetchEnd := (blk + 1) * bs
		if off == b.lastSeqEnd {
			fetchEnd = blk*bs + readaheadWindow
		}
		if fetchEnd > b.f.size {
			fetchEnd = b.f.size
		}
		fetchStart := blk * bs
		missBytes += fetchEnd - fetchStart
		cl.insertBlocks(b.f.path, fetchStart, fetchEnd)
	}
	if missBytes > 0 {
		done := cl.cluster.reserve(missBytes, pm.ReadBandwidth)
		p.Sleep(pm.ReadFixed + (done - p.Now()))
		cl.cluster.BytesRead += missBytes
	}
	// Cache-hit portion: local memory copy.
	p.Sleep(localCopyCost(pm, n-missBytes))
	b.lastSeqEnd = off + n
	return nil
}

// The mount's block cache: which cacheBlock-sized blocks of which path are
// client-resident, for pricing only (handles hold the content). Entries sit
// on a doubly linked list in recency order, least recently used first, so
// a hit and an eviction cost O(1).
type blockKey struct {
	path string
	idx  int64
}

type blockEnt struct {
	key        blockKey
	size       int64
	prev, next *blockEnt
}

// pushBack links e in as the most recently used entry.
func (cl *Client) pushBack(e *blockEnt) {
	e.prev, e.next = cl.lru.prev, &cl.lru
	e.prev.next, e.next.prev = e, e
}

func (e *blockEnt) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

// cachedBlock reports whether key is cache-resident, counting the hit or
// miss; a hit becomes the most recently used entry.
func (cl *Client) cachedBlock(key blockKey) bool {
	e, ok := cl.cache[key]
	if !ok {
		cl.CacheMisses++
		return false
	}
	cl.CacheHits++
	e.unlink()
	cl.pushBack(e)
	return true
}

// insertBlocks marks [start, end) of path cache-resident, evicting LRU
// blocks if over capacity. Blocks already resident keep their place.
func (cl *Client) insertBlocks(path string, start, end int64) {
	const bs = cacheBlock
	for b := start / bs; b*bs < end; b++ {
		key := blockKey{path: path, idx: b}
		if _, ok := cl.cache[key]; ok {
			continue
		}
		e := &blockEnt{key: key, size: bs}
		cl.cache[key] = e
		cl.pushBack(e)
		cl.cacheUsed += bs
	}
	for cl.cacheUsed > cl.cluster.params.CacheCapacity {
		victim := cl.lru.next
		victim.unlink()
		cl.cacheUsed -= victim.size
		delete(cl.cache, victim.key)
	}
}

// dropBlocks evicts every cached block of paths a and b.
func (cl *Client) dropBlocks(a, b string) {
	for k, e := range cl.cache {
		if k.path == a || k.path == b {
			e.unlink()
			cl.cacheUsed -= e.size
			delete(cl.cache, k)
		}
	}
}
