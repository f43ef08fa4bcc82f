package dfs

import (
	"errors"
	"fmt"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/wire"
)

// Client-side half of the extent plane: ID allocation with a lease cache,
// deterministic chain selection, and the windowed frame pump that streams
// one chunk down its chain.

// ExtentMeta is the extent-metadata service a mount allocates and seals
// extents through. The full stack wires a sessionless controller client
// (the controller owns /dfs/<vol>/...); standalone dfs tests fall
// back to a cluster-local allocator that models only the metadata cost.
type ExtentMeta interface {
	// AllocIDs reserves n consecutive extent IDs and returns the first.
	AllocIDs(p *simnet.Proc, n int) (uint64, error)
	// Seal records an extent's chain membership and committed length when a
	// failed append re-forms onto a fresh extent. The length is the client's
	// acked watermark for its append stream (recovery bookkeeping; reads go
	// through file manifests, never through seal records).
	Seal(p *simnet.Proc, id uint64, nodes []string, length int64) error
}

// extAllocBatch is how many extent IDs one metadata round trip reserves;
// the lease cache hands them out locally so a multi-extent flush pays for
// allocation once, not per extent.
const extAllocBatch = 32

// extMaxRetries bounds chain re-forms per chunk before the flush fails.
const extMaxRetries = 3

// chainProbation is how long a blamed chain member stays out of chain
// selection. Depth-scaled timeouts blame slow-but-alive members exactly
// like crashed ones, so blame must expire: a gray node re-enters the pick
// set after the window instead of being excluded for the mount's lifetime.
const chainProbation = 2 * time.Second

// chainReformAmnesty caps consecutive chain re-forms before the suspect set
// is cleared wholesale. Under a widespread gray failure every node ends up
// blamed; without amnesty the client re-forms onto an ever-shrinking pool
// until chainFor starves even though the fabric has recovered.
const chainReformAmnesty = 3

// extMeta returns (lazily building) this mount's metadata client.
func (cl *Client) extMeta() ExtentMeta {
	if cl.meta == nil {
		cl.meta = cl.cluster.extents.newMeta(cl.node)
	}
	return cl.meta
}

// allocExtent returns a fresh extent ID (from the lease cache) and the
// chain that will hold it.
func (cl *Client) allocExtent(p *simnet.Proc) (uint64, []string, error) {
	if cl.allocNext >= cl.allocEnd {
		first, err := cl.extMeta().AllocIDs(p, extAllocBatch)
		if err != nil {
			return 0, nil, err
		}
		cl.allocNext, cl.allocEnd = first, first+extAllocBatch
	}
	id := cl.allocNext
	cl.allocNext++
	nodes, err := cl.chainFor(id)
	if err != nil {
		return 0, nil, err
	}
	return id, nodes, nil
}

// chainFor picks extent id's chain deterministically: ChainLength distinct
// nodes scanning from (id*ChainLength) mod N, skipping unexpired suspects.
// The stride spreads consecutive extents' chain slots evenly over the
// nodes, so a multi-extent flush loads every link equally. When suspects
// leave fewer than ChainLength candidates, the whole suspect set is
// re-admitted — capacity beats blame: a chain over recently-blamed nodes
// can still make progress, a starved allocator cannot.
func (cl *Client) chainFor(id uint64) ([]string, error) {
	es := cl.cluster.extents
	k := cl.cluster.params.ChainLength
	if k < 1 {
		k = 1
	}
	n := len(es.nodes)
	start := int(id * uint64(k) % uint64(n))
	pick := func() []string {
		out := make([]string, 0, k)
		for i := 0; i < n && len(out) < k; i++ {
			en := es.nodes[(start+i)%n]
			if cl.isSuspect(en.addr) {
				continue
			}
			out = append(out, en.addr)
		}
		return out
	}
	out := pick()
	if len(out) < k && len(cl.suspects) > 0 {
		cl.suspects = nil
		out = pick()
	}
	if len(out) < k {
		return nil, fmt.Errorf("dfs: extent chain needs %d nodes, have %d", k, n)
	}
	return out, nil
}

// suspect excludes a chain member from chain picks on this mount until the
// probation window expires. Like NCL's suspect cooldown this trades
// capacity for not re-forming onto a flapping node — but the blame is
// timeout-based and cannot distinguish crashed from merely slow, so it must
// not be permanent. Mounts are as long-lived as their node, so the set
// dies with a client crash.
func (cl *Client) suspect(addr string) {
	if addr == "" {
		return
	}
	if cl.suspects == nil {
		cl.suspects = make(map[string]time.Duration)
	}
	cl.suspects[addr] = cl.cluster.sim.Now() + chainProbation
}

// isSuspect reports whether addr is inside its probation window, lazily
// expiring stale entries.
func (cl *Client) isSuspect(addr string) bool {
	until, ok := cl.suspects[addr]
	if !ok {
		return false
	}
	if cl.cluster.sim.Now() >= until {
		delete(cl.suspects, addr)
		return false
	}
	return true
}

// chunk is one contiguous append stream: a logical range of the file
// destined for one extent at one offset, on one chain.
type chunk struct {
	ext      uint64
	extOff   int64
	logStart int64
	data     []byte
	nodes    []string
}

// pumpFrames streams ch down its chain in ChainFrame-sized frames with a
// ChainWindow-deep window, and returns the contiguous acked prefix. On
// failure, suspect names the chain member to blame (the head when the
// head itself is unreachable; whoever a ChainNodeError blames otherwise).
func (cl *Client) pumpFrames(p *simnet.Proc, ch chunk) (acked int64, suspect string, err error) {
	pm := cl.cluster.params
	frame := pm.ChainFrame
	if frame <= 0 || frame > len(ch.data) {
		frame = len(ch.data)
	}
	nframes := (len(ch.data) + frame - 1) / frame
	ackedArr := make([]bool, nframes)
	next := 0
	stop := false
	var failErr error
	var failSuspect string
	worker := func(wp *simnet.Proc) {
		for !stop {
			i := next
			if i >= nframes {
				return
			}
			next++
			lo := i * frame
			hi := lo + frame
			if hi > len(ch.data) {
				hi = len(ch.data)
			}
			data := ch.data[lo:hi]
			// Serialize the frame onto the client's egress link, then hand it
			// to the chain head; the nested forwards ack back up the chain as
			// the Call returns.
			sleepUntil(wp, reservePipe(cl.cluster.sim, &cl.extEgressBusy, int64(len(data)), pm.LinkBandwidth))
			if cl.dead {
				stop = true
				if failErr == nil {
					failErr = errors.New("dfs: client died during chained append")
				}
				return
			}
			_, cerr := wire.CallTimeout[extAppendResp](wp, cl.cluster.sim.Net(), cl.node, ch.nodes[0],
				extAppendReq{Ext: ch.ext, Off: ch.extOff + int64(lo), Data: data, Rest: ch.nodes[1:]},
				chainHopTimeout(len(ch.nodes)-1))
			if cerr != nil {
				stop = true
				if failErr == nil {
					failErr = cerr
					var cne *ChainNodeError
					if errors.As(cerr, &cne) {
						failSuspect = cne.Addr
					} else {
						failSuspect = ch.nodes[0]
					}
				}
				return
			}
			ackedArr[i] = true
		}
	}
	w := pm.ChainWindow
	if w > nframes {
		w = nframes
	}
	if w <= 1 {
		worker(p)
	} else {
		var wg simnet.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			cl.pumpSeq++
			p.Go(fmt.Sprintf("dfs-chain-pump:%d", cl.pumpSeq), func(wp *simnet.Proc) {
				defer wg.Done(wp)
				worker(wp)
			})
		}
		wg.Wait(p)
	}
	for i := 0; i < nframes; i++ {
		if !ackedArr[i] {
			break
		}
		hi := (i + 1) * frame
		if hi > len(ch.data) {
			hi = len(ch.data)
		}
		acked = int64(hi)
	}
	return acked, failSuspect, failErr
}

// writeChunk pumps one chunk to durability, re-forming onto a fresh chain
// when a member fails mid-append: the suspect is excluded, the broken
// extent sealed at the acked watermark, and the remainder retried on a new
// extent. Returns the manifest segments covering ch's logical range (more
// than one after a re-form).
func (cl *Client) writeChunk(p *simnet.Proc, ch chunk) ([]extSeg, error) {
	var segs []extSeg
	for attempt := 0; ; attempt++ {
		acked, suspect, err := cl.pumpFrames(p, ch)
		if acked > 0 {
			segs = append(segs, extSeg{
				logStart: ch.logStart, logEnd: ch.logStart + acked,
				ext: ch.ext, extOff: ch.extOff, nodes: ch.nodes,
			})
		}
		if err == nil {
			cl.reforms = 0
			return segs, nil
		}
		if cl.dead {
			return segs, err
		}
		cl.suspect(suspect)
		// Consecutive re-forms without a completed chunk mean the blame is
		// not converging (gray fabric, not one bad node): amnesty the whole
		// suspect set so healthy nodes blamed by slow hops come back.
		if cl.reforms++; cl.reforms > chainReformAmnesty {
			cl.suspects = nil
			cl.reforms = 0
		}
		if serr := cl.extMeta().Seal(p, ch.ext, ch.nodes, ch.extOff+acked); serr != nil {
			return segs, serr
		}
		if attempt >= extMaxRetries {
			return segs, err
		}
		id, nodes, aerr := cl.allocExtent(p)
		if aerr != nil {
			return segs, aerr
		}
		ch = chunk{ext: id, extOff: 0, logStart: ch.logStart + acked,
			data: ch.data[acked:], nodes: nodes}
	}
}

// readExtentRange fetches n bytes at off within a manifest segment's
// extent, falling over to the next chain member when one is unreachable.
func (cl *Client) readExtentRange(p *simnet.Proc, sg extSeg, off, n int64) ([]byte, error) {
	var lastErr error
	for _, addr := range sg.nodes {
		resp, err := wire.Call[extReadResp](p, cl.cluster.sim.Net(), cl.node, addr,
			extReadReq{Ext: sg.ext, Off: sg.extOff + off, N: n})
		if err == nil {
			return resp.Data, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dfs: extent %d unreadable on all %d chain members: %w",
		sg.ext, len(sg.nodes), lastErr)
}
