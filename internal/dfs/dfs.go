// Package dfs simulates the disaggregated storage backends of the DFT
// paradigm: a CephFS-like distributed file system and, with different
// parameters, a local-ext4-on-SSD file system (used only as a recovery
// baseline, as in the paper's Fig 11b).
//
// Semantics reproduced (§2.1 of the paper):
//
//   - Writes are buffered in the client's (application server's) memory and
//     become durable only on fsync, which replicates them to the storage
//     service. Data written before the last successful fsync survives a
//     client crash; everything after it is lost.
//   - Metadata operations (create/unlink/rename) are synchronous and
//     durable immediately.
//   - A background writeback proc flushes dirty data periodically, and
//     writers stall when dirty data exceeds a high watermark — the
//     "write stalls" that weak-mode applications suffer and SplitFT avoids.
//   - Reads are served through a client block cache with sequential
//     readahead; direct IO bypasses the cache (Fig 11a baselines).
//
// Cost model: a single shared storage pipe per cluster (bandwidth
// reservation in virtual time, crash-safe by construction) plus fixed
// round-trip costs for sync, metadata and fetch operations. DefaultParams
// is calibrated to the paper's CephFS measurements: a small sync write
// costs ~2.3 ms (Table 1, Fig 8 "strong"), sequential write throughput
// spans three orders of magnitude between 512 B and 64 MB IOs (Fig 1d).
package dfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"splitft/internal/model"
	"splitft/internal/simnet"
)

// Params is the storage cost model. The constants live in internal/model
// (the unified hardware cost-model layer); this alias keeps the dfs API
// self-contained.
type Params = model.DFSParams

// DefaultParams returns the baseline profile's dfs cost model, which
// models the paper's CephFS deployment (3 replicas on SATA SSDs behind a
// 25 Gb network).
func DefaultParams() Params {
	return model.Baseline().DFS
}

// LocalExt4Params returns the baseline profile's local-ext4 cost model — a
// local partition on a SATA SSD (the comparison point in Fig 11b; "not
// realistic" for DFT but fast).
func LocalExt4Params() Params {
	return model.Baseline().LocalFS
}

// Errors.
var (
	ErrNotExist = errors.New("dfs: file does not exist")
	ErrClosed   = errors.New("dfs: file handle closed")
)

// Cluster is the storage service: durable state that survives any client or
// application crash. (Internally the real service replicates 3x; the model
// collapses that into the cost constants.)
type Cluster struct {
	sim    *simnet.Sim
	name   string
	params Params
	files  map[string]*durableFile
	// diskBusyUntil implements the shared storage pipe as a virtual-time
	// reservation: crash-safe, deterministic FIFO bandwidth sharing.
	diskBusyUntil time.Duration

	// extents is the chained-append extent store (nil until EnableExtents;
	// the primary-copy path is untouched by it).
	extents *extentStore

	// Stats.
	BytesWritten int64
	BytesRead    int64
	Syncs        int64
	// ExtentBytes counts bytes acked through extent chains (the payload
	// once, not per replica); ExtentSyncs counts extent-file fsyncs.
	ExtentBytes int64
	ExtentSyncs int64
}

// durableFile is one inode of the storage service. Small files hold their
// bytes inline (data); large files opened with the extent flag hold a
// manifest mapping logical ranges onto chain-replicated extents (ext).
type durableFile struct {
	data []byte
	ext  *extManifest
}

// NewCluster creates a storage service on s.
func NewCluster(s *simnet.Sim, name string, params Params) *Cluster {
	return &Cluster{sim: s, name: name, params: params, files: make(map[string]*durableFile)}
}

// Params returns the cluster cost model.
func (c *Cluster) Params() Params { return c.params }

// reserve reserves the shared storage pipe for n bytes and returns the
// reservation's completion time.
func (c *Cluster) reserve(n int64, bw float64) time.Duration {
	return reservePipe(c.sim, &c.diskBusyUntil, n, bw)
}

// DurableBytes returns a copy of the durable content of path. For an
// extent-backed file the content is reconstructed from the storage nodes'
// replicas (a zero-cost test/debug helper, not a data path).
func (c *Cluster) DurableBytes(path string) ([]byte, bool) {
	f, ok := c.files[path]
	if !ok {
		return nil, false
	}
	if f.ext != nil {
		return c.extents.reconstruct(f.ext), true
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, true
}

// Client is one node's mount of the cluster. Its caches and dirty data die
// with the node; durable state lives in the Cluster.
type Client struct {
	cluster *Cluster
	node    *simnet.Node
	dead    bool

	open map[*File]struct{}
	// dirty is the mount's dirty total: the bytes of the open flat files'
	// dirty spans, each byte once however often it was rewritten.
	dirty int64

	cache     map[blockKey]*blockEnt
	lru       blockEnt // sentinel of the cache's recency list
	cacheUsed int64

	stallCond *simnet.Cond
	stallMu   simnet.Mutex

	flushNow *simnet.Chan[struct{}]

	// Extent-plane state (nil/zero until the mount touches an extent file):
	// the metadata client, the extent-ID lease cache, the chain members this
	// mount has blamed for failed appends, the egress-link pipe all chained
	// appends serialize through, and a counter naming pump procs.
	meta          ExtentMeta
	allocNext     uint64
	allocEnd      uint64
	blame         *simnet.BlameSet
	reforms       int
	extEgressBusy time.Duration
	pumpSeq       uint64

	// DirectIO disables the block cache and readahead for all reads through
	// this client (Fig 11a "DFS direct IO" baseline).
	DirectIO bool

	// Stats.
	CacheHits    int64
	CacheMisses  int64
	StallTime    time.Duration
	FlushedBytes int64
}

// Mount creates a client for node. The mount dies (caches and dirty data
// dropped) when the node crashes; remounting after restart starts clean.
func (c *Cluster) Mount(node *simnet.Node) *Client {
	cl := &Client{
		cluster:  c,
		node:     node,
		open:     make(map[*File]struct{}),
		cache:    make(map[blockKey]*blockEnt),
		flushNow: simnet.NewChan[struct{}](c.sim),
		blame:    simnet.NewBlameSet(c.sim),
	}
	cl.lru.prev, cl.lru.next = &cl.lru, &cl.lru
	cl.stallCond = simnet.NewCond(&cl.stallMu)
	node.OnCrash(func() { cl.dead = true })
	node.Go("dfs-writeback", cl.writeback)
	return cl
}

// writeback periodically flushes all dirty data, and immediately when
// kicked by a stalling writer.
func (cl *Client) writeback(p *simnet.Proc) {
	for {
		_, _, _ = cl.flushNow.RecvTimeout(p, cl.cluster.params.WritebackInterval)
		if cl.dead {
			return
		}
		// Snapshot in path order: map iteration order would make runs
		// nondeterministic.
		files := make([]*File, 0, len(cl.open))
		for f := range cl.open {
			files = append(files, f)
		}
		sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
		for _, f := range files {
			if len(f.dirty) > 0 {
				f.flush(p, false)
			}
		}
		cl.stallMu.Lock(p)
		cl.stallCond.Broadcast(p)
		cl.stallMu.Unlock(p)
	}
}

func (cl *Client) checkAlive() error {
	if cl.dead {
		return errors.New("dfs: client mount is dead")
	}
	return nil
}

// grow extends buf to length n (geometric capacity growth, zero-filled).
func grow(buf []byte, n int64) []byte {
	if n <= int64(len(buf)) {
		return buf
	}
	if n <= int64(cap(buf)) {
		return buf[:n]
	}
	newCap := int64(cap(buf)) * 2
	if newCap < n {
		newCap = n
	}
	grown := make([]byte, n, newCap)
	copy(grown, buf)
	return grown
}

// span is a dirty byte range [start, end).
type span struct{ start, end int64 }

// addSpan inserts s into sorted, disjoint, non-empty spans, merging
// overlapping and adjacent ranges. Empty spans are dropped: a zero-length
// write dirties nothing, and inserting one would break the non-empty
// invariant everything downstream (flush packing, extent appends) relies on.
func addSpan(spans []span, s span) []span {
	if s.end <= s.start {
		return spans
	}
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end >= s.start })
	j := i
	for j < len(spans) && spans[j].start <= s.end {
		if spans[j].start < s.start {
			s.start = spans[j].start
		}
		if spans[j].end > s.end {
			s.end = spans[j].end
		}
		j++
	}
	out := make([]span, 0, len(spans)-(j-i)+1)
	out = append(out, spans[:i]...)
	out = append(out, s)
	out = append(out, spans[j:]...)
	return out
}

func spanBytes(spans []span) int64 {
	var n int64
	for _, s := range spans {
		n += s.end - s.start
	}
	return n
}

// Exists reports whether path exists durably.
func (cl *Client) Exists(path string) bool {
	_, ok := cl.cluster.files[path]
	return ok
}

// Unlink removes path durably.
func (cl *Client) Unlink(p *simnet.Proc, path string) error {
	if err := cl.checkAlive(); err != nil {
		return err
	}
	p.Sleep(cl.cluster.params.MetaFixed)
	if _, ok := cl.cluster.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	delete(cl.cluster.files, path)
	cl.dropBlocks(path, path)
	return nil
}

// Rename atomically renames old to new, replacing new if present.
func (cl *Client) Rename(p *simnet.Proc, oldPath, newPath string) error {
	if err := cl.checkAlive(); err != nil {
		return err
	}
	p.Sleep(cl.cluster.params.MetaFixed)
	df, ok := cl.cluster.files[oldPath]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
	}
	cl.cluster.files[newPath] = df
	delete(cl.cluster.files, oldPath)
	// Cached blocks are keyed by path: entries for the old name (and for a
	// file the rename replaced) would serve stale hits to future openers.
	cl.dropBlocks(oldPath, newPath)
	return nil
}

// List returns the durable paths with the given prefix, sorted.
func (cl *Client) List(prefix string) []string {
	var out []string
	for name := range cl.cluster.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
