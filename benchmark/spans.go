package main

import (
	"time"

	"splitft/internal/trace"
)

// This file reduces the span collector of a traced run to per-layer
// numbers. The program's spans are read as exported (trace.Collector.Spans);
// the only spans the benchmark adds are its own bench/op roots, one around
// every client operation, so that all spans an operation causes share a
// root.

// layers are the repo's modules that emit spans, in stack order.
var layers = []string{"app", "core", "ncl", "rdma", "rpc", "peer", "controller", "raft", "dfs"}

const (
	benchLayer = "bench"
	opName     = "op"
)

// layerAgg is one layer's share of the budget.
type layerAgg struct {
	fgSelf  time.Duration // self time inside op trees, within the op's interval
	bgSelf  time.Duration // self time outside op trees, or after the op returned
	fgCalls int           // spans inside op trees
}

// budget is the per-layer decomposition of a set of spans.
type budget struct {
	ops      int           // bench/op roots
	opDur    time.Duration // sum of root durations
	rootSelf time.Duration // root time no child span covers
	layers   map[string]*layerAgg
}

func (b *budget) layer(name string) *layerAgg {
	a := b.layers[name]
	if a == nil {
		a = &layerAgg{}
		b.layers[name] = a
	}
	return a
}

// fgTotal is the foreground self time of every layer plus the roots' own:
// by construction it equals cover() x opDur.
func (b *budget) fgTotal() time.Duration {
	t := b.rootSelf
	for _, a := range b.layers {
		t += a.fgSelf
	}
	return t
}

// cover is foreground self time over op latency: 1 when an op's spans run
// strictly one after another, above 1 when children overlap (three RDMA
// writes in flight at once count three times).
func (b *budget) cover() float64 {
	if b.opDur == 0 {
		return 0
	}
	return float64(b.fgTotal()) / float64(b.opDur)
}

// inRanges reports whether span index i lies in one of the half-open index
// ranges (ascending, disjoint).
func inRanges(ranges [][2]int, i int) bool {
	for _, r := range ranges {
		if i >= r[0] && i < r[1] {
			return true
		}
	}
	return false
}

// reduce computes the budget of the finished spans whose collector index
// lies in ranges. spans must be the collector's full slice (span ID ==
// index+1), so parents resolve by arithmetic.
//
// A span's self time is its duration minus the union of its children's
// intervals (clipped to the span). Children are created in virtual-time
// order, so the union is one running sweep per parent. A span is foreground
// when its root is a bench/op span, and only for the part of its self time
// that lies before the root ended: work an op leaves behind (a write still
// in flight to the third replica, a log pre-opened for the next memtable)
// is background, as is every span outside an op tree.
func reduce(spans []*trace.Span, ranges [][2]int) budget {
	b := budget{layers: make(map[string]*layerAgg)}
	n := len(spans)
	root := make([]int32, n)      // index of the span's root, -1 = not counted
	covered := make([]int64, n)   // union of children inside the span
	fgCovered := make([]int64, n) // ... and before the root's end
	coverEnd := make([]int64, n)  // sweep position of the union
	for i, s := range spans {
		root[i] = -1
		if !s.Done() || !inRanges(ranges, i) {
			continue
		}
		root[i] = int32(i)
		coverEnd[i] = int64(s.Start)
		pi := int(s.Parent) - 1
		if pi < 0 || root[pi] < 0 {
			continue
		}
		root[i] = root[pi]
		p := spans[pi]
		lo, hi := int64(s.Start), int64(s.End)
		if lo < coverEnd[pi] {
			lo = coverEnd[pi]
		}
		if hi > int64(p.End) {
			hi = int64(p.End)
		}
		if hi <= lo {
			continue
		}
		covered[pi] += hi - lo
		coverEnd[pi] = hi
		if fgEnd := int64(spans[root[pi]].End); lo < fgEnd {
			if hi > fgEnd {
				hi = fgEnd
			}
			fgCovered[pi] += hi - lo
		}
	}
	for i, s := range spans {
		if root[i] < 0 {
			continue
		}
		self := time.Duration(int64(s.Dur()) - covered[i])
		r := spans[root[i]]
		isOp := r.Layer == benchLayer && r.Op == opName
		if int(root[i]) == i {
			if isOp {
				b.ops++
				b.opDur += s.Dur()
				b.rootSelf += self
				continue
			}
		}
		a := b.layer(s.Layer)
		if !isOp {
			a.bgSelf += self
			continue
		}
		a.fgCalls++
		fgEnd := s.End
		if r.End < fgEnd {
			fgEnd = r.End
		}
		var fg time.Duration
		if fgEnd > s.Start {
			fg = time.Duration(int64(fgEnd-s.Start) - fgCovered[i])
		}
		a.fgSelf += fg
		a.bgSelf += self - fg
	}
	return b
}

// opAgg folds the finished spans of one (layer, op) pair.
type opAgg struct {
	count int
	total time.Duration
	bytes int64 // sum of the "bytes" attribute
}

func (a opAgg) mean() time.Duration {
	if a.count == 0 {
		return 0
	}
	return a.total / time.Duration(a.count)
}

// aggregate folds finished spans by (layer, op); keep selects span indexes.
func aggregate(spans []*trace.Span, keep func(i int) bool) map[[2]string]opAgg {
	out := make(map[[2]string]opAgg)
	for i, s := range spans {
		if !s.Done() || !keep(i) {
			continue
		}
		k := [2]string{s.Layer, s.Op}
		a := out[k]
		a.count++
		a.total += s.Dur()
		a.bytes += s.IntAttr("bytes")
		out[k] = a
	}
	return out
}

// layerTotal sums every op of one layer.
func layerTotal(agg map[[2]string]opAgg, layer string) opAgg {
	var t opAgg
	for k, a := range agg {
		if k[0] == layer {
			t.count += a.count
			t.total += a.total
			t.bytes += a.bytes
		}
	}
	return t
}
