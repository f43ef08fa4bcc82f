package main

import (
	"testing"
	"time"

	"splitft/internal/trace"
)

// tree builds spans with a collector so IDs and parent links are real.
type tree struct {
	col *trace.Collector
}

func (t *tree) span(parent *trace.Span, layer, op string, start, end time.Duration) *trace.Span {
	s := t.col.Start(start*usec, 0, 1, layer, op, "n", parent)
	if end >= 0 {
		t.col.End(s, end*usec)
	}
	return s
}

func (t *tree) reduceAll() budget {
	return reduce(t.col.Spans(), [][2]int{{0, t.col.Len()}})
}

func wantSelf(t *testing.T, b budget, layer string, fg, bg time.Duration, calls int) {
	t.Helper()
	a := b.layer(layer)
	if a.fgSelf != fg*usec || a.bgSelf != bg*usec || a.fgCalls != calls {
		t.Errorf("%s: fg %v bg %v calls %d, want fg %v bg %v calls %d",
			layer, a.fgSelf, a.bgSelf, a.fgCalls, fg*usec, bg*usec, calls)
	}
}

// Nested, serial children: every microsecond of the op belongs to exactly
// one layer and cover is 1.
func TestSelfTimeNested(t *testing.T) {
	tr := &tree{col: trace.New()}
	op := tr.span(nil, benchLayer, opName, 0, 100)
	app := tr.span(op, "app", "put", 10, 90)
	core := tr.span(app, "core", "write.ncl", 20, 60)
	tr.span(core, "ncl", "record", 25, 55)
	b := tr.reduceAll()
	if b.ops != 1 || b.opDur != 100*usec || b.rootSelf != 20*usec {
		t.Errorf("ops %d opDur %v rootSelf %v", b.ops, b.opDur, b.rootSelf)
	}
	wantSelf(t, b, "app", 40, 0, 1)
	wantSelf(t, b, "core", 10, 0, 1)
	wantSelf(t, b, "ncl", 30, 0, 1)
	if b.cover() != 1 {
		t.Errorf("cover = %v, want 1 for serial spans", b.cover())
	}
}

// Parallel children (three RDMA writes in flight at once): the parent's
// self time subtracts the union of their intervals, not their sum, and each
// child's own time still counts, so cover rises above 1.
func TestSelfTimeParallelChildren(t *testing.T) {
	tr := &tree{col: trace.New()}
	op := tr.span(nil, benchLayer, opName, 0, 20)
	rec := tr.span(op, "ncl", "record", 0, 20)
	tr.span(rec, "rdma", "write", 2, 12)
	tr.span(rec, "rdma", "write", 2, 14)
	tr.span(rec, "rdma", "write", 4, 10)
	b := tr.reduceAll()
	wantSelf(t, b, "ncl", 8, 0, 1)   // 20 - union [2,14]
	wantSelf(t, b, "rdma", 28, 0, 3) // 10 + 12 + 6
	if b.rootSelf != 0 {
		t.Errorf("rootSelf = %v, want 0", b.rootSelf)
	}
	if got, want := b.cover(), 36.0/20.0; got != want {
		t.Errorf("cover = %v, want %v", got, want)
	}
	if b.fgTotal() != 36*usec {
		t.Errorf("fgTotal = %v: the accounting identity is cover x opDur", b.fgTotal())
	}
}

// Detached children: a write that completes after the op returned (the
// third replica), and a proc the op spawned that outlives it (a pre-opened
// log). Time after the root ended is background.
func TestSelfTimeDetachedChildren(t *testing.T) {
	tr := &tree{col: trace.New()}
	op := tr.span(nil, benchLayer, opName, 0, 10)
	rec := tr.span(op, "ncl", "record", 0, 10)
	tr.span(rec, "rdma", "write", 1, 9)
	tr.span(rec, "rdma", "write", 1, 16)       // straggler: 9 us inside, 6 us after
	open := tr.span(op, "ncl", "open", 5, 105) // spawned by the op, runs on
	tr.span(open, "peer", "setup", 20, 60)     // entirely after the op
	b := tr.reduceAll()
	// record: 10 - union [1,10) = 1; open: [5,10) inside the op, nothing covers it.
	wantSelf(t, b, "ncl", 1+5, 100-40-5, 2)
	wantSelf(t, b, "rdma", 8+9, 6, 2)
	wantSelf(t, b, "peer", 0, 40, 1)
	// The root is covered by record for its whole length.
	if b.rootSelf != 0 || b.cover() < 1 {
		t.Errorf("rootSelf %v cover %v", b.rootSelf, b.cover())
	}
}

// Spans outside any op tree are background; so are unfinished spans' children
// (counted as their own roots) — and unfinished spans themselves are skipped.
func TestForegroundBackgroundSplitByRoot(t *testing.T) {
	tr := &tree{col: trace.New()}
	op := tr.span(nil, benchLayer, opName, 0, 10)
	tr.span(op, "dfs", "pread", 2, 8)
	flush := tr.span(nil, "dfs", "writeback", 0, 50) // background root
	tr.span(flush, "rpc", "call:x", 10, 30)
	hung := tr.span(nil, "ncl", "replace", 5, -1) // never finished
	tr.span(hung, "controller", "get", 6, 9)
	b := tr.reduceAll()
	wantSelf(t, b, "dfs", 6, 30, 1)
	wantSelf(t, b, "rpc", 0, 20, 0)
	wantSelf(t, b, "controller", 0, 3, 0)
	wantSelf(t, b, "ncl", 0, 0, 0)
	if b.ops != 1 || b.rootSelf != 4*usec {
		t.Errorf("ops %d rootSelf %v", b.ops, b.rootSelf)
	}
}

// Only spans whose collector index lies in the steady ranges count; a child
// whose parent is outside them becomes its own (background) root.
func TestReduceHonoursRanges(t *testing.T) {
	tr := &tree{col: trace.New()}
	setup := tr.span(nil, benchLayer, opName, 0, 10) // index 0: outside
	tr.span(setup, "app", "put", 1, 9)               // index 1: inside, parent outside
	op := tr.span(nil, benchLayer, opName, 20, 30)   // index 2
	tr.span(op, "app", "put", 21, 29)                // index 3
	b := reduce(tr.col.Spans(), [][2]int{{1, 4}})
	if b.ops != 1 || b.opDur != 10*usec {
		t.Errorf("ops %d opDur %v, want the one op inside the range", b.ops, b.opDur)
	}
	wantSelf(t, b, "app", 8, 8, 1)
}

func TestAggregateAndLayerTotal(t *testing.T) {
	tr := &tree{col: trace.New()}
	a := tr.col.Start(0, 0, 1, "rdma", "write", "n", nil, trace.Int("bytes", 100))
	tr.col.End(a, 4*usec)
	c := tr.col.Start(0, 0, 1, "rdma", "write", "n", nil, trace.Int("bytes", 50))
	tr.col.End(c, 2*usec)
	tr.span(nil, "rdma", "register", 0, 30)
	tr.span(nil, "rdma", "read", 0, -1) // unfinished: ignored
	agg := aggregate(tr.col.Spans(), func(int) bool { return true })
	w := agg[[2]string{"rdma", "write"}]
	if w.count != 2 || w.bytes != 150 || w.mean() != 3*usec {
		t.Errorf("write agg %+v", w)
	}
	if tot := layerTotal(agg, "rdma"); tot.count != 3 || tot.total != 36*usec {
		t.Errorf("layer total %+v", tot)
	}
}
