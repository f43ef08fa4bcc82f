// The extent plane: ChubaoFS-style fixed-size, append-only extents stored
// on a set of storage nodes, replicated by chain replication (client ->
// head -> mid -> tail, ack riding the nested RPC returns back up). Each
// storage node keeps its extent replicas in an in-memory append log
// (DXRAM-style backup logging), to be drained to its local disk off the
// ack path — an acked append is resident in ChainLength memories, which is
// the durability the flat path buys with its 3-replica sync round trip,
// minus the disk from the critical path. The drain itself is not modeled:
// nothing waits on it.
//
// Cost model: two per-node virtual-time pipes (ingress link, egress link)
// plus a per-frame fixed cost. A frame occupies the sender's egress link
// and the receiver's ingress link for size/LinkBandwidth each, so a
// windowed stream of frames pipelines at per-link bandwidth.

package dfs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/wire"
)

// Extent-plane message codes (range 0x50-0x5f; see internal/wire).
const (
	codeExtAppend     wire.Code = 0x50
	codeExtAppendResp wire.Code = 0x51
	codeExtRead       wire.Code = 0x52
	codeExtReadResp   wire.Code = 0x53
)

// extAppendReq replicates one frame down the chain: Rest names the chain
// members after the receiving node, in forwarding order.
type extAppendReq struct {
	Ext  uint64
	Off  int64
	Data []byte
	Rest []string
}

func (r extAppendReq) MarshalWire() wire.Msg {
	return wire.Msg{Code: codeExtAppend, U: [4]uint64{r.Ext, uint64(r.Off)}, B: r.Data, Strs: r.Rest}
}

type extAppendResp struct{}

func (*extAppendResp) UnmarshalWire(wire.Msg) error { return nil }

// extReadReq fetches [Off, Off+N) of one extent replica.
type extReadReq struct {
	Ext uint64
	Off int64
	N   int64
}

func (r extReadReq) MarshalWire() wire.Msg {
	return wire.Msg{Code: codeExtRead, U: [4]uint64{r.Ext, uint64(r.Off), uint64(r.N)}}
}

type extReadResp struct{ Data []byte }

func (r *extReadResp) UnmarshalWire(m wire.Msg) error {
	r.Data = m.B
	return nil
}

// ChainNodeError blames a specific chain member for a failed append: a
// node whose forward to the next hop times out wraps the failure with the
// next hop's address, so the client learns which node to exclude when it
// re-forms the chain. It crosses the simulated wire intact (handler errors
// are returned in-process).
type ChainNodeError struct {
	Addr string
	Err  error
}

func (e *ChainNodeError) Error() string {
	return fmt.Sprintf("dfs: chain node %s failed: %v", e.Addr, e.Err)
}

func (e *ChainNodeError) Unwrap() error { return e.Err }

// chainHopTimeout is the RPC timeout for an append to a chain member with
// rest downstream nodes after it. Each hop's budget exceeds its callee's by
// one timeout unit, so when a deep member dies, the hop calling it times
// out FIRST and its ChainNodeError rides the still-open upstream calls back
// to the client. With a flat timeout the client's own call — started
// earliest — would expire first, and the client would blame the head for
// every failure anywhere in the chain.
func chainHopTimeout(rest int) time.Duration {
	return time.Duration(rest+1) * simnet.DefaultRPCTimeout
}

// extentStore is the cluster-side extent plane: the storage nodes and the
// constructor of per-mount metadata clients.
type extentStore struct {
	c      *Cluster
	nodes  []*extNode
	byAddr map[string]*extNode

	// newMeta builds a mount's metadata client (controller-backed in the
	// full stack). Mounts call it lazily, on first extent use.
	newMeta func(*simnet.Node) ExtentMeta
}

// extNode is one storage node's extent service: replicas in an in-memory
// append log, two virtual-time pipes for the cost model.
type extNode struct {
	store *extentStore
	node  *simnet.Node
	addr  string

	extents map[uint64]*extReplica

	ingressBusy time.Duration
	egressBusy  time.Duration

	// BytesStored counts bytes this node appended (all chain positions).
	BytesStored int64
}

// extReplica is one extent's bytes on one node: the frames appended to it,
// in offset order and disjoint, plus its length (the largest end written).
// A frame's bytes are the client's packed copy, shared by every chain
// member and never written after they leave the client, so storing one
// costs a reference, not a copy. Ranges no frame covers read as zeros.
type extReplica struct {
	frames []extFrame
	size   int64
}

type extFrame struct {
	off  int64
	data []byte
}

func (f extFrame) end() int64 { return f.off + int64(len(f.data)) }

// write stores data at off. An append at or past the end adds a reference;
// any other write replaces [off, end) in the frames it overlaps.
func (r *extReplica) write(off int64, data []byte) {
	end := off + int64(len(data))
	switch {
	case len(data) == 0:
	case off >= r.size:
		r.frames = append(r.frames, extFrame{off: off, data: data})
	default:
		r.frames = spliceFrame(r.frames, extFrame{off: off, data: data})
	}
	r.size = max(r.size, end)
}

// spliceFrame inserts nf into the sorted, disjoint frames, trimming the
// parts of older frames it overlaps (trims are re-slices: no bytes move).
func spliceFrame(frames []extFrame, nf extFrame) []extFrame {
	off, end := nf.off, nf.end()
	out := make([]extFrame, 0, len(frames)+2)
	for _, old := range frames {
		oldEnd := old.end()
		if oldEnd <= off || old.off >= end {
			out = append(out, old)
			continue
		}
		if old.off < off {
			out = append(out, extFrame{off: old.off, data: old.data[:off-old.off]})
		}
		if oldEnd > end {
			out = append(out, extFrame{off: end, data: old.data[end-old.off:]})
		}
	}
	i := sort.Search(len(out), func(i int) bool { return out[i].off > off })
	out = append(out, extFrame{})
	copy(out[i+1:], out[i:])
	out[i] = nf
	return out
}

// readAt copies the frames' part of [off, off+len(out)) into out and leaves
// the rest of out as it was: out comes zeroed, so a gap reads as zeros.
// The caller checks the range is within the replica's length.
func (r *extReplica) readAt(out []byte, off int64) {
	end := off + int64(len(out))
	i := sort.Search(len(r.frames), func(i int) bool { return r.frames[i].end() > off })
	for ; i < len(r.frames) && r.frames[i].off < end; i++ {
		f := r.frames[i]
		lo, hi := max(f.off, off), min(f.end(), end)
		copy(out[lo-off:hi-off], f.data[lo-f.off:hi-f.off])
	}
}

// EnableExtents attaches the extent plane to the cluster, registering one
// append/read service per storage node; newMeta builds the extent-metadata
// client of a mount on the given node (the harness wires a sessionless
// controller client). A node crash wipes its in-memory replicas (the append
// log is memory-resident; the chain's other members keep the data) and
// leaves the node unreachable until restarted.
func (c *Cluster) EnableExtents(nodes []*simnet.Node, newMeta func(*simnet.Node) ExtentMeta) {
	es := &extentStore{c: c, byAddr: make(map[string]*extNode), newMeta: newMeta}
	for _, n := range nodes {
		en := &extNode{store: es, node: n, addr: n.Name(), extents: make(map[uint64]*extReplica)}
		es.nodes = append(es.nodes, en)
		es.byAddr[en.addr] = en
		c.sim.Net().Register(en.addr, n, en.handle)
		n.OnCrash(func() { en.extents = make(map[uint64]*extReplica) })
	}
	c.extents = es
}

// ExtentsEnabled reports whether the extent plane is attached.
func (c *Cluster) ExtentsEnabled() bool { return c.extents != nil }

// reservePipe reserves n bytes on a virtual-time pipe and returns the
// reservation's completion time: crash-safe, deterministic FIFO bandwidth
// sharing. The cluster's storage pipe and every extent-plane link are one.
func reservePipe(s *simnet.Sim, busy *time.Duration, n int64, bw float64) time.Duration {
	start := *busy
	if now := s.Now(); start < now {
		start = now
	}
	*busy = start + time.Duration(float64(n)/bw*float64(time.Second))
	return *busy
}

// sleepUntil sleeps p to a reservation's completion time.
func sleepUntil(p *simnet.Proc, at time.Duration) {
	if d := at - p.Now(); d > 0 {
		p.Sleep(d)
	}
}

func (en *extNode) handle(p *simnet.Proc, m simnet.Msg) (simnet.Msg, error) {
	switch m.Code {
	case codeExtAppend:
		return en.handleAppend(p, m)
	case codeExtRead:
		return en.handleRead(p, m)
	}
	return simnet.Msg{}, fmt.Errorf("dfs: extent node %s: unknown code %#x", en.addr, uint16(m.Code))
}

// handleAppend stores one frame and forwards it down the rest of the
// chain; the ack returns when every downstream member has stored it.
func (en *extNode) handleAppend(p *simnet.Proc, m simnet.Msg) (simnet.Msg, error) {
	pm := en.store.c.params
	ext, off, data, rest := m.U[0], int64(m.U[1]), m.B, m.Strs
	// The frame occupies this node's ingress link, then pays the fixed
	// append cost (log-index update, memory commit).
	sleepUntil(p, reservePipe(en.store.c.sim, &en.ingressBusy, int64(len(data)), pm.LinkBandwidth))
	p.Sleep(pm.AppendFixed)
	rep := en.extents[ext]
	if rep == nil {
		rep = &extReplica{}
		en.extents[ext] = rep
	}
	rep.write(off, data)
	en.BytesStored += int64(len(data))
	if len(rest) > 0 {
		next := rest[0]
		sleepUntil(p, reservePipe(en.store.c.sim, &en.egressBusy, int64(len(data)), pm.LinkBandwidth))
		_, err := wire.CallTimeout[extAppendResp](p, en.store.c.sim.Net(), en.node, next,
			extAppendReq{Ext: ext, Off: off, Data: data, Rest: rest[1:]},
			chainHopTimeout(len(rest[1:])))
		if err != nil {
			var cne *ChainNodeError
			if errors.As(err, &cne) {
				return simnet.Msg{}, err // already blamed downstream
			}
			return simnet.Msg{}, &ChainNodeError{Addr: next, Err: err}
		}
	}
	return simnet.Msg{Code: codeExtAppendResp}, nil
}

// handleRead serves a replica range from the node's memory log over its
// egress link.
func (en *extNode) handleRead(p *simnet.Proc, m simnet.Msg) (simnet.Msg, error) {
	pm := en.store.c.params
	ext, off, n := m.U[0], int64(m.U[1]), int64(m.U[2])
	rep := en.extents[ext]
	if rep == nil || off+n > rep.size {
		return simnet.Msg{}, fmt.Errorf("dfs: extent node %s: extent %d range [%d,%d) not resident",
			en.addr, ext, off, off+n)
	}
	sleepUntil(p, reservePipe(en.store.c.sim, &en.egressBusy, n, pm.LinkBandwidth))
	p.Sleep(pm.AppendFixed)
	out := make([]byte, n)
	rep.readAt(out, off)
	en.store.c.BytesRead += n
	return simnet.Msg{Code: codeExtReadResp, B: out}, nil
}

// reconstruct rebuilds a manifest's logical content from whichever
// replicas still hold each segment — a zero-cost test/debug helper
// mirroring DurableBytes on the flat path.
func (es *extentStore) reconstruct(man *extManifest) []byte {
	out := make([]byte, man.size)
	for _, seg := range man.segs {
		n := seg.logEnd - seg.logStart
		for _, addr := range seg.nodes {
			en := es.byAddr[addr]
			if en == nil {
				continue
			}
			rep := en.extents[seg.ext]
			if rep == nil || seg.extOff+n > rep.size {
				continue
			}
			rep.readAt(out[seg.logStart:seg.logEnd], seg.extOff)
			break
		}
	}
	return out
}
