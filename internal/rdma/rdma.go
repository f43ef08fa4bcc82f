// Package rdma simulates the subset of RDMA verbs that NCL depends on:
// memory-region registration with remote keys, reliable-connected queue
// pairs with send-queue ordering, completion queues, and 1-sided READ/WRITE
// operations that access a remote node's memory without involving its CPU.
//
// The paper's implementation uses ibverbs over 25 Gb RoCE (Mellanox CX-4).
// This package reproduces the semantics NCL's correctness argument leans on:
//
//   - SQ ordering: WRs on a QP complete in post order (§4.4 uses this to
//     order the data write before the sequence-number write).
//   - 1-sided access: writes and reads land in the remote MR directly; the
//     remote CPU is only involved at registration time.
//   - Failure surface: a crashed or partitioned remote turns WRs into
//     completion errors after a retry timeout and moves the QP to the error
//     state, flushing subsequently posted WRs — as a real RC QP does.
//   - Revocation: invalidating an MR (peer memory reclaim, §4.5.2) makes
//     subsequent remote access fail with a protection error.
//
// Latency follows a base-plus-bandwidth cost model calibrated to the
// paper's measurements (see DefaultParams).
package rdma

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// Params is the fabric cost model. The constants live in internal/model
// (the unified hardware cost-model layer); this alias keeps the fabric API
// self-contained.
type Params = model.RDMAParams

// DefaultParams returns the baseline profile's fabric cost model,
// calibrated so a 128 B application write (data WR + 16 B sequence WR,
// SQ-ordered) completes in ~3 us of fabric time, matching the paper's
// 4.6 us end-to-end NCL record latency once library overhead is added; a
// 60 MB region registers in ~54 ms (Table 3's "connect to new peer" step).
func DefaultParams() Params {
	return model.Baseline().RDMA
}

// retryTimeout is how long a NIC retries a work request to an unreachable
// remote before it reports a transport error.
const retryTimeout = time.Millisecond

// Errors surfaced in completions or from Connect.
var (
	ErrRemoteDown   = errors.New("rdma: remote unreachable (transport retry exceeded)")
	ErrRemoteAccess = errors.New("rdma: remote access error (invalid rkey or bounds)")
	ErrQPError      = errors.New("rdma: qp in error state, wr flushed")
	ErrNoNIC        = errors.New("rdma: node has no NIC attached")
	ErrNICDown      = errors.New("rdma: nic is down")
)

// Fabric is one RDMA network shared by all NICs; it uses the simnet latency
// matrix and partition state so data-plane and control-plane failures agree.
type Fabric struct {
	sim     *simnet.Sim
	params  Params
	nics    map[string]*NIC
	nextKey uint64
	bufs    bufPool
}

// bufPool recycles write-payload staging buffers in power-of-two size
// classes. PostWrite copies the caller's payload into a pooled buffer (the
// caller may reuse its own immediately, as after a real post with a
// registered send buffer) and the QP engine returns the buffer once the
// write has been applied or failed. Simnet procs are cooperatively
// scheduled, so the pool needs no lock.
type bufPool struct {
	classes [33][][]byte
}

func (bp *bufPool) get(n int) []byte {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if l := bp.classes[c]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		bp.classes[c] = l[:len(l)-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// put returns a buffer obtained from get (its cap is exactly a class size).
func (bp *bufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b) - 1))
	bp.classes[c] = append(bp.classes[c], b[:0])
}

// NewFabric creates a fabric on s with the given cost model.
func NewFabric(s *simnet.Sim, p Params) *Fabric {
	return &Fabric{sim: s, params: p, nics: make(map[string]*NIC)}
}

// Params returns the fabric cost model.
func (f *Fabric) Params() Params { return f.params }

// Registration is pin + bind: pinning pages costs bytes/RegBandwidth, and
// binding a region to the NIC costs RegFixed when any of it had to be pinned
// on the way and RegFixed/10 (rkey programming only) when none had.

// pinCost is what pinning bytes of memory takes.
func (f *Fabric) pinCost(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / f.params.RegBandwidth * float64(time.Second))
}

// RegisterCost is what registering a memory region of size bytes takes when
// none of it is pinned yet: pinning its pages and programming the NIC.
func (f *Fabric) RegisterCost(size int64) time.Duration {
	return f.params.RegFixed + f.pinCost(size)
}

// NIC is a node's RDMA adapter. Crash of the node takes the NIC down,
// invalidates every registered MR, and errors every QP targeting it.
type NIC struct {
	fabric *Fabric
	node   *simnet.Node
	up     bool
	mrs    map[uint64]*MR
}

// AttachNIC gives node an RDMA adapter (or re-attaches one after restart).
func (f *Fabric) AttachNIC(node *simnet.Node) *NIC {
	n := &NIC{fabric: f, node: node, up: true, mrs: make(map[uint64]*MR)}
	f.nics[node.Name()] = n
	node.OnCrash(func() {
		n.up = false
		for _, mr := range n.mrs {
			mr.valid = false
		}
		n.mrs = make(map[uint64]*MR)
	})
	return n
}

// NIC returns the adapter attached to the named node, or nil.
func (f *Fabric) NIC(nodeName string) *NIC { return f.nics[nodeName] }

// MR is a registered memory region. The buffer is the region's backing
// memory; 1-sided operations from remote QPs read and write it directly.
type MR struct {
	nic   *NIC
	buf   []byte
	rkey  uint64
	valid bool
}

// RegisterMR registers buf with the NIC and returns the region. cold is how
// many of buf's bytes are not pinned yet: all of them costs RegisterCost, none
// what RefreshMR always cost. The caller (a log peer's setup path, typically)
// runs on the NIC's node.
func (n *NIC) RegisterMR(p *simnet.Proc, buf []byte, cold int64) (*MR, error) {
	mr := &MR{nic: n, buf: buf}
	if err := n.RefreshMR(p, mr, cold); err != nil {
		return nil, err
	}
	return mr, nil
}

// Pin pins bytes of the node's memory ahead of any registration, so that a
// later one finds them pinned (a peer warming its lendable memory).
func (n *NIC) Pin(p *simnet.Proc, bytes int64) error {
	if !n.up {
		return ErrNICDown
	}
	sp := p.StartSpan("rdma", "pin", trace.Int("bytes", bytes))
	defer p.EndSpan(sp)
	p.Sleep(n.fabric.pinCost(bytes))
	if !n.up {
		return ErrNICDown
	}
	return nil
}

// RKey returns the remote key granting access to the region.
func (mr *MR) RKey() uint64 { return mr.rkey }

// Bytes exposes the region's backing memory (local access by its owner).
func (mr *MR) Bytes() []byte { return mr.buf }

// Invalidate revokes the region: later remote accesses fail with a
// protection error. Peers use this for memory revocation (§4.5.2) and when
// releasing a log's region. Revocation is local and instantaneous.
func (mr *MR) Invalidate() {
	mr.valid = false
	delete(mr.nic.mrs, mr.rkey)
}

// RefreshMR arms a region — a new one, or one invalidated before (§4.3: "the
// peers ... invalidate the keys and recycle the memory region for future
// use") — under a fresh rkey, pinning the cold bytes it is told are not
// pinned yet. With none it is rkey programming only, a "refresh" span;
// otherwise a "register" span.
func (n *NIC) RefreshMR(p *simnet.Proc, mr *MR, cold int64) error {
	if !n.up {
		return ErrNICDown
	}
	if mr.nic != n {
		return ErrRemoteAccess
	}
	op, cost := "refresh", n.fabric.params.RegFixed/10
	if cold > 0 {
		op, cost = "register", n.fabric.RegisterCost(cold)
	}
	sp := p.StartSpan("rdma", op, trace.Int("bytes", int64(len(mr.buf))))
	defer p.EndSpan(sp)
	p.Sleep(cost)
	if !n.up {
		return ErrNICDown
	}
	n.fabric.nextKey++
	mr.rkey = n.fabric.nextKey
	mr.valid = true
	n.mrs[mr.rkey] = mr
	return nil
}

// Completion reports the outcome of a posted work request. Ctx is the
// opaque value given at post time; callers pack whatever routing state they
// need into its 64 bits (ncl packs flags, a connection id and a sequence
// number) so completions flow through the CQ without boxing.
type Completion struct {
	QP   *QP
	WRID uint64
	Ctx  uint64
	Err  error // nil on success
}

// CQ is a completion queue; multiple QPs may share one so a client can poll
// a single stream (NCL shares one CQ across all peers of a log).
type CQ struct {
	ch *simnet.Chan[Completion]
}

// NewCQ creates a completion queue.
func NewCQ(s *simnet.Sim) *CQ { return &CQ{ch: simnet.NewChan[Completion](s)} }

// Poll blocks until a completion arrives.
func (cq *CQ) Poll(p *simnet.Proc) (Completion, bool) { return cq.ch.Recv(p) }

// Close destroys the CQ; blocked pollers return ok=false and completions
// from still-draining QPs are dropped.
func (cq *CQ) Close(p *simnet.Proc) { cq.ch.Close(p) }

type wrKind int

const (
	wrWrite wrKind = iota
	wrRead
)

type workRequest struct {
	kind   wrKind
	id     uint64
	rkey   uint64
	offset int
	data   []byte // write payload (pooled; returned by the engine)
	into   []byte // read destination
	ctx    uint64
	span   *trace.Span // post→completion async span, finished by the engine
}

// QP is a reliable-connected queue pair. One engine proc per QP drains the
// send queue in order, giving verbs' SQ-ordering guarantee. Once any WR
// fails, the QP enters the error state and flushes everything after it.
type QP struct {
	fabric     *Fabric
	local      *NIC
	remote     *NIC
	remoteName string
	remoteInc  int
	sq         *simnet.Chan[workRequest]
	cq         *CQ
	nextWR     uint64
	errState   bool
	closed     bool
}

// Connect establishes a QP from this NIC to the named remote node,
// delivering completions to cq. It costs three network round trips plus the
// handshake base, mirroring connection setup through a rendezvous.
func (n *NIC) Connect(p *simnet.Proc, remote string, cq *CQ) (*QP, error) {
	if !n.up {
		return nil, ErrNICDown
	}
	rn := n.fabric.nics[remote]
	if rn == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoNIC, remote)
	}
	sp := p.StartSpan("rdma", "connect", trace.Str("remote", remote))
	defer p.EndSpan(sp)
	net := n.fabric.sim.Net()
	p.Sleep(n.fabric.params.ConnectBase + 6*net.Latency(n.node, rn.node))
	if !n.up {
		return nil, ErrNICDown
	}
	if !rn.up || !net.Reachable(n.node, rn.node) {
		return nil, ErrRemoteDown
	}
	qp := &QP{
		fabric:     n.fabric,
		local:      n,
		remote:     rn,
		remoteName: remote,
		remoteInc:  rn.node.Incarnation(),
		sq:         simnet.NewChan[workRequest](n.fabric.sim),
		cq:         cq,
	}
	n.node.Go("rdma-qp-engine:"+remote, qp.engine)
	return qp, nil
}

// Errored reports whether the QP is in the error state.
func (qp *QP) Errored() bool { return qp.errState }

// Close tears the QP down; in-flight WRs are abandoned.
func (qp *QP) Close(p *simnet.Proc) {
	if qp.closed {
		return
	}
	qp.closed = true
	qp.sq.Close(p)
}

// PostWrite posts a 1-sided RDMA write of data to [offset, offset+len) of
// the remote region named by rkey. It returns immediately with the WR id;
// the outcome arrives on the QP's CQ. ctx is returned in the completion.
// The payload is copied into a pooled staging buffer at post time, so the
// caller may reuse data immediately.
func (qp *QP) PostWrite(p *simnet.Proc, rkey uint64, offset int, data []byte, ctx uint64) uint64 {
	d := qp.fabric.bufs.get(len(data))
	copy(d, data)
	return qp.post(p, workRequest{kind: wrWrite, rkey: rkey, offset: offset, data: d, ctx: ctx})
}

// PostRead posts a 1-sided RDMA read of len(into) bytes from the remote
// region at offset into `into`. The buffer is filled by completion time.
func (qp *QP) PostRead(p *simnet.Proc, rkey uint64, offset int, into []byte, ctx uint64) uint64 {
	return qp.post(p, workRequest{kind: wrRead, rkey: rkey, offset: offset, into: into, ctx: ctx})
}

func (qp *QP) post(p *simnet.Proc, wr workRequest) uint64 {
	qp.nextWR++
	wr.id = qp.nextWR
	if qp.closed {
		qp.fabric.bufs.put(wr.data) // nothing will drain the SQ
		return wr.id
	}
	if p.Tracing() {
		op := "write"
		size := len(wr.data)
		if wr.kind == wrRead {
			op = "read"
			size = len(wr.into)
		}
		// A WR's lifetime crosses procs: posted here, completed by the QP
		// engine. Detached async span, finished when the completion is
		// delivered.
		wr.span = p.StartDetachedSpan("rdma", op,
			trace.Str("remote", qp.remoteName), trace.Int("bytes", int64(size)))
	}
	qp.sq.Send(p, wr)
	return wr.id
}

// engine drains the send queue in order, applying the cost model and the
// failure semantics. It runs on the local node and dies with it.
func (qp *QP) engine(p *simnet.Proc) {
	pm := qp.fabric.params
	net := qp.fabric.sim.Net()
	for {
		wr, ok := qp.sq.Recv(p)
		if !ok {
			return
		}
		if qp.errState {
			wr.span.SetAttr(trace.Str("err", "flushed"))
			p.FinishSpan(wr.span)
			qp.fabric.bufs.put(wr.data)
			qp.cq.ch.Send(p, Completion{QP: qp, WRID: wr.id, Ctx: wr.ctx, Err: ErrQPError})
			continue
		}
		size := len(wr.data)
		if wr.kind == wrRead {
			size = len(wr.into)
		}
		xfer := pm.WRBase/2 + time.Duration(float64(size)/pm.Bandwidth*float64(time.Second))
		// A gray (slow-but-alive) link toward the remote delays every WR; the
		// in-order engine turns that into a growing completion backlog, which
		// is exactly how a slow NCL peer starves an ack quorum.
		xfer += net.GrayLatency(qp.local.node, qp.remote.node)
		p.Sleep(xfer) // request propagation + serialization
		var err error
		switch {
		case !net.Reachable(qp.local.node, qp.remote.node),
			!qp.remote.up,
			qp.remote.node.Incarnation() != qp.remoteInc:
			err = ErrRemoteDown
		default:
			mr := qp.remote.mrs[wr.rkey]
			if mr == nil || !mr.valid {
				err = ErrRemoteAccess
			} else if wr.offset < 0 || wr.offset+size > len(mr.buf) {
				err = ErrRemoteAccess
			} else if wr.kind == wrWrite {
				copy(mr.buf[wr.offset:], wr.data) // the 1-sided write: no peer CPU
			} else {
				copy(wr.into, mr.buf[wr.offset:wr.offset+size])
			}
		}
		if errors.Is(err, ErrRemoteDown) {
			p.Sleep(retryTimeout) // transport-level retries before giving up
		} else {
			p.Sleep(pm.WRBase / 2) // ack path
		}
		if err != nil {
			qp.errState = true
			wr.span.SetAttr(trace.Str("err", err.Error()))
		}
		p.FinishSpan(wr.span)
		qp.fabric.bufs.put(wr.data) // write applied (or failed); recycle the staging buffer
		qp.cq.ch.Send(p, Completion{QP: qp, WRID: wr.id, Ctx: wr.ctx, Err: err})
	}
}
