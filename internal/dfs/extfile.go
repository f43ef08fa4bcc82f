package dfs

import (
	"fmt"
	"sort"

	"splitft/internal/simnet"
)

// extSeg maps one contiguous logical range of a file onto one extent. The
// chain membership is embedded so reads never need a metadata lookup.
type extSeg struct {
	logStart, logEnd int64
	ext              uint64
	extOff           int64
	nodes            []string
}

// extManifest is an extent-backed file's durable metadata: sorted,
// non-overlapping segments mapping the logical file onto extents. It is
// immutable once installed on the inode; a flush commits by swapping in a
// spliced clone, so a client crash mid-flush leaves the old manifest — and
// therefore the old file content — intact, exactly like an fsync that
// never returned.
type extManifest struct {
	size int64
	segs []extSeg
}

func (m *extManifest) clone() *extManifest {
	q := &extManifest{size: m.size, segs: make([]extSeg, len(m.segs))}
	copy(q.segs, m.segs)
	return q
}

// splice inserts sg, trimming older segments it overlaps: an overwrite
// (e.g. a litedb checkpoint Pwrite) appends fresh bytes to the log and
// shadows the range of whatever extent held them before.
func (m *extManifest) splice(sg extSeg) {
	out := m.segs[:0:0]
	for _, old := range m.segs {
		if old.logEnd <= sg.logStart || old.logStart >= sg.logEnd {
			out = append(out, old)
			continue
		}
		if old.logStart < sg.logStart {
			left := old
			left.logEnd = sg.logStart
			out = append(out, left)
		}
		if old.logEnd > sg.logEnd {
			right := old
			right.extOff += sg.logEnd - old.logStart
			right.logStart = sg.logEnd
			out = append(out, right)
		}
	}
	i := sort.Search(len(out), func(i int) bool { return out[i].logStart > sg.logStart })
	out = append(out, extSeg{})
	copy(out[i+1:], out[i:])
	out[i] = sg
	m.segs = out
	if sg.logEnd > m.size {
		m.size = sg.logEnd
	}
}

// extentBackend is the extent plane behind a File: Sync packs the dirty
// spans into chunks and streams each down its extent's chain concurrently,
// then commits the manifest. Extent files skip the background writeback
// plane — they are explicit-sync append streams, the pattern every port
// uses for SSTables, checkpoints and journal chunks — so a buffered write
// pays the local copy only: durability cost is paid where it belongs, at
// Sync.
//
// Unlike the flat path, a reopened extent file starts with an empty view
// and load moves real bytes into it, so the backend tracks which ranges of
// the view are resident. That set is per handle and never evicted: it
// ignores Params.CacheCapacity (a recorded model gap, see ROADMAP.md).
type extentBackend struct {
	f        *File
	resident []span

	// The append tail: where the next flushed byte lands. Invalidated by a
	// failed flush (re-forms may have sealed it) so the next flush starts
	// on a fresh extent.
	tailValid bool
	tailExt   uint64
	tailOff   int64
	tailNodes []string
}

func (b *extentBackend) admit(p *simnet.Proc, off, n int64) {
	p.Sleep(localCopyCost(b.f.client.cluster.params, n))
	b.resident = addSpan(b.resident, span{start: off, end: off + n})
}

// pack cuts the dirty spans into chunks, filling the append tail and
// allocating fresh extents (from the lease cache) as extents fill. Chunks
// never cross an extent boundary. Each span is copied out of the view once,
// and its chunks are slices of that copy: the chain members keep the frames
// they receive by reference, so a later Pwrite into the view must not
// reach them.
func (b *extentBackend) pack(p *simnet.Proc, spans []span) ([]chunk, error) {
	cl := b.f.client
	pm := cl.cluster.params
	var chunks []chunk
	for _, s := range spans {
		data := append([]byte(nil), b.f.view[s.start:s.end]...)
		cur := s.start
		for cur < s.end {
			if !b.tailValid || b.tailOff >= pm.ExtentSize {
				id, nodes, err := cl.allocExtent(p)
				if err != nil {
					return nil, err
				}
				b.tailValid, b.tailExt, b.tailOff, b.tailNodes = true, id, 0, nodes
			}
			take := s.end - cur
			if room := pm.ExtentSize - b.tailOff; take > room {
				take = room
			}
			chunks = append(chunks, chunk{ext: b.tailExt, extOff: b.tailOff,
				logStart: cur, data: data[cur-s.start : cur-s.start+take], nodes: b.tailNodes})
			b.tailOff += take
			cur += take
		}
	}
	return chunks, nil
}

// commit is the extent fsync: pack the spans into chunks, pump every chunk
// down its chain concurrently, then install the spliced manifest.
func (b *extentBackend) commit(p *simnet.Proc, spans []span, n int64, _ bool) error {
	f, cl := b.f, b.f.client
	pm := cl.cluster.params
	chunks, err := b.pack(p, spans)
	if err != nil {
		b.tailValid = false
		return err
	}
	results := make([][]extSeg, len(chunks))
	errs := make([]error, len(chunks))
	if len(chunks) == 1 {
		results[0], errs[0] = cl.writeChunk(p, chunks[0])
	} else {
		var wg simnet.WaitGroup
		wg.Add(len(chunks))
		for i := range chunks {
			i := i
			cl.pumpSeq++
			p.Go(fmt.Sprintf("dfs-chain-chunk:%d", cl.pumpSeq), func(wp *simnet.Proc) {
				defer wg.Done(wp)
				results[i], errs[i] = cl.writeChunk(wp, chunks[i])
			})
		}
		wg.Wait(p)
	}
	if cl.dead {
		// Died mid-flush: nothing commits; the inode keeps its old manifest.
		return errDiedInFlush
	}
	for _, e := range errs {
		if e != nil {
			b.tailValid = false
			return e
		}
	}
	// Commit: splice the new segments into a manifest clone, then install
	// it atomically on the inode (one metadata op).
	man := f.df.ext.clone()
	for _, segs := range results {
		for _, sg := range segs {
			man.splice(sg)
		}
	}
	p.Sleep(pm.MetaFixed)
	f.df.ext = man
	cl.cluster.ExtentBytes += n
	// The tail continues from the last segment written (a re-form may have
	// moved it off the extent pack chose).
	last := results[len(results)-1]
	sg := last[len(last)-1]
	b.tailExt = sg.ext
	b.tailOff = sg.extOff + (sg.logEnd - sg.logStart)
	b.tailNodes = sg.nodes
	b.tailValid = b.tailOff < pm.ExtentSize
	return nil
}

// load fetches whatever part of [off, off+n) is not yet resident from the
// extents' chain members through the manifest, then charges the local copy.
func (b *extentBackend) load(p *simnet.Proc, off, n int64) error {
	for _, miss := range missingRanges(b.resident, span{start: off, end: off + n}) {
		if err := b.fetchRange(p, miss); err != nil {
			return err
		}
	}
	p.Sleep(localCopyCost(b.f.client.cluster.params, n))
	return nil
}

// missingRanges returns the parts of want not covered by the sorted,
// disjoint resident spans.
func missingRanges(resident []span, want span) []span {
	var out []span
	cur := want.start
	for _, r := range resident {
		if r.end <= cur {
			continue
		}
		if r.start >= want.end {
			break
		}
		if r.start > cur {
			out = append(out, span{start: cur, end: r.start})
		}
		if r.end > cur {
			cur = r.end
		}
	}
	if cur < want.end {
		out = append(out, span{start: cur, end: want.end})
	}
	return out
}

// fetchRange pulls one missing logical range into the view from the
// extents holding it (manifest holes read as zeros).
func (b *extentBackend) fetchRange(p *simnet.Proc, s span) error {
	f := b.f
	f.view = grow(f.view, s.end)
	for _, sg := range f.df.ext.segs {
		if sg.logEnd <= s.start || sg.logStart >= s.end {
			continue
		}
		lo, hi := s.start, s.end
		if sg.logStart > lo {
			lo = sg.logStart
		}
		if sg.logEnd < hi {
			hi = sg.logEnd
		}
		data, err := f.client.readExtentRange(p, sg, lo-sg.logStart, hi-lo)
		if err != nil {
			return err
		}
		copy(f.view[lo:hi], data)
	}
	b.resident = addSpan(b.resident, s)
	return nil
}
