// Package trace is a deterministic span layer over simnet virtual time.
//
// A Span records one operation inside the simulator: which layer emitted it
// (rpc, rdma, dfs, raft, controller, peer, ncl, core, app), the operation
// name, the node it ran on, its start/end virtual timestamps, and an optional
// parent. Because every timestamp comes from the simulated clock and span IDs
// are assigned in creation order by a single collector, two runs of the same
// experiment with the same profile and seed produce byte-identical traces.
//
// Tracing costs nothing when disabled: layers obtain spans through
// simnet.Proc.StartSpan, which returns nil when no collector is attached, and
// every trace call tolerates nil receivers/spans.
//
// The package imports only the standard library and internal/metrics (itself
// standard-library only) so that every other layer (including simnet itself)
// can depend on it without cycles.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"splitft/internal/metrics"
)

// SpanID identifies a span within one Collector. IDs are assigned in creation
// order starting at 1; 0 means "no span" (used for a root span's Parent).
type SpanID uint64

// Attr is a single key/value attribute attached to a span. Values are either
// strings or integers; keeping the two cases explicit avoids interface boxing
// on the hot path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Int: val, IsInt: true} }

// Value renders the attribute value as a string (for tables and tests).
func (a Attr) Value() string {
	if a.IsInt {
		return fmt.Sprintf("%d", a.Int)
	}
	return a.Str
}

// Span is one traced operation on the virtual clock. Start and End are
// virtual-time offsets from the simulation epoch; End == Start is legal
// (instantaneous spans), End < Start never happens for finished spans, and an
// unfinished span has End == -1.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 for root spans
	Layer  string // "rpc", "rdma", "dfs", "raft", "controller", "peer", "ncl", "core", "app"
	Op     string // e.g. "record", "recover.rdmaread", "call:peer3/setup"
	Node   string // node the span ran on ("" if none)
	Run    int    // which Sim produced it (collectors can outlive one cluster)
	TID    uint64 // proc id that opened the span (Chrome thread lane)
	Start  time.Duration
	End    time.Duration
	Attrs  []Attr
	// Async marks spans whose lifetime crosses procs (e.g. an RDMA work
	// request posted by one proc and completed by the NIC engine). They are
	// exported as Chrome async (b/e) events instead of complete (X) events.
	Async bool

	prev *Span // saved proc context, restored by Proc.EndSpan
}

// Dur returns the span duration (0 for unfinished spans).
func (s *Span) Dur() time.Duration {
	if s == nil || s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Done reports whether the span has been ended.
func (s *Span) Done() bool { return s != nil && s.End >= s.Start }

// SetAttr appends an attribute to an in-flight span. Safe on nil spans so
// call sites don't need to guard on tracing being enabled.
func (s *Span) SetAttr(a Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, a)
}

// StrAttr returns the named string attribute ("" if absent).
func (s *Span) StrAttr(key string) string {
	if s == nil {
		return ""
	}
	for _, a := range s.Attrs {
		if a.Key == key && !a.IsInt {
			return a.Str
		}
	}
	return ""
}

// IntAttr returns the named integer attribute (0 if absent).
func (s *Span) IntAttr(key string) int64 {
	if s == nil {
		return 0
	}
	for _, a := range s.Attrs {
		if a.Key == key && a.IsInt {
			return a.Int
		}
	}
	return 0
}

// Prev returns the enclosing span saved when this span was started. simnet
// uses it to restore a proc's span context on EndSpan; other code should not
// need it.
func (s *Span) Prev() *Span {
	if s == nil {
		return nil
	}
	return s.prev
}

// Collector accumulates spans for one or more simulation runs. It is not
// safe for concurrent use from real OS threads, but simnet's single execution
// token means at most one proc runs at a time, so no locking is needed.
type Collector struct {
	spans []*Span
	runs  int
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// AddRun allocates a run number for a Sim attaching to this collector.
// Numbers start at 0 and become the Chrome "pid" so multiple clusters
// sharing one collector stay distinguishable.
func (c *Collector) AddRun() int {
	r := c.runs
	c.runs++
	return r
}

// Start opens a span. parent may be nil. The caller supplies the virtual
// clock reading; the collector never consults wall time.
func (c *Collector) Start(now time.Duration, run int, tid uint64, layer, op, node string, parent *Span, attrs ...Attr) *Span {
	sp := &Span{
		ID:    SpanID(len(c.spans) + 1),
		Layer: layer,
		Op:    op,
		Node:  node,
		Run:   run,
		TID:   tid,
		Start: now,
		End:   -1,
		prev:  parent,
	}
	if parent != nil {
		sp.Parent = parent.ID
	}
	if len(attrs) > 0 {
		sp.Attrs = append(sp.Attrs, attrs...)
	}
	c.spans = append(c.spans, sp)
	return sp
}

// End finishes a span at the given virtual time. Nil-safe and idempotent.
func (c *Collector) End(sp *Span, now time.Duration) {
	if c == nil || sp == nil || sp.Done() {
		return
	}
	sp.End = now
}

// Len returns the number of spans recorded so far. Benches use it as a mark
// before an operation and query Since(mark) afterwards.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.spans)
}

// Spans returns all recorded spans in creation order. The slice is the
// collector's backing store; callers must not mutate it.
func (c *Collector) Spans() []*Span {
	if c == nil {
		return nil
	}
	return c.spans
}

// Since returns the spans recorded at or after the given mark (a previous
// Len() reading).
func (c *Collector) Since(mark int) []*Span {
	if c == nil || mark >= len(c.spans) {
		return nil
	}
	if mark < 0 {
		mark = 0
	}
	return c.spans[mark:]
}

// Filter returns the spans matching layer and op. Either may be "" to match
// everything; op may also end in "." to match a prefix (e.g. "recover.").
func Filter(spans []*Span, layer, op string) []*Span {
	var out []*Span
	for _, s := range spans {
		if matches(s, layer, op) {
			out = append(out, s)
		}
	}
	return out
}

// First returns the first span matching layer/op, or nil.
func First(spans []*Span, layer, op string) *Span {
	for _, s := range spans {
		if matches(s, layer, op) {
			return s
		}
	}
	return nil
}

// Sum adds up the durations of finished spans matching layer/op.
func Sum(spans []*Span, layer, op string) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if matches(s, layer, op) && s.Done() {
			total += s.Dur()
		}
	}
	return total
}

// Count returns the number of spans matching layer/op.
func Count(spans []*Span, layer, op string) int {
	n := 0
	for _, s := range spans {
		if matches(s, layer, op) {
			n++
		}
	}
	return n
}

func matches(s *Span, layer, op string) bool {
	if layer != "" && s.Layer != layer {
		return false
	}
	switch {
	case op == "":
		return true
	case strings.HasSuffix(op, "."):
		return strings.HasPrefix(s.Op, op)
	default:
		return s.Op == op
	}
}

// OpStats is one line of the per-phase aggregation table: the durations of
// all finished spans of a given (layer, op) pair.
type OpStats struct {
	Layer string
	Op    string
	metrics.Histogram
}

// Aggregate folds finished spans into per-(layer, op) histograms, sorted by
// layer then op so output is deterministic.
func Aggregate(spans []*Span) []*OpStats {
	idx := map[[2]string]*OpStats{}
	var rows []*OpStats
	for _, s := range spans {
		if !s.Done() {
			continue
		}
		key := [2]string{s.Layer, s.Op}
		r, ok := idx[key]
		if !ok {
			r = &OpStats{Layer: s.Layer, Op: s.Op}
			idx[key] = r
			rows = append(rows, r)
		}
		r.Record(s.Dur())
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		return rows[i].Op < rows[j].Op
	})
	return rows
}

// RenderAggregate formats aggregation rows as an aligned text table.
func RenderAggregate(rows []*OpStats) string {
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			r.Layer, r.Op, fmt.Sprintf("%d", r.Count()),
			fmtDur(r.Sum()), fmtDur(r.Mean()), fmtDur(r.Percentile(0.5)), fmtDur(r.Percentile(0.99)),
			fmtDur(r.Min()), fmtDur(r.Max()),
		})
	}
	return metrics.Table([]string{"layer", "op", "count", "total", "mean", "p50", "p99", "min", "max"}, cells)
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Nanosecond).String()
}
