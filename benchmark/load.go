package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"splitft/internal/simnet"
)

// This file is the load-generation and latency arithmetic shared by the
// workloads: latency populations and the percentile rule, the open-loop
// arrival schedule with due-time accounting, and the ack-gap tracker behind
// unavail_ms. Everything here is plain arithmetic on virtual timestamps so
// the unit tests can drive it with synthetic inputs.

// lat is a latency population in virtual nanoseconds.
type lat []int64

func (l *lat) add(d time.Duration) { *l = append(*l, int64(d)) }

// sorted returns an ascending copy.
func (l lat) sorted() []int64 {
	s := append([]int64(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the nearest-rank q-quantile of an ascending slice (0 for
// an empty one).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// mean returns the arithmetic mean (0 for an empty population).
func (l lat) mean() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum float64
	for _, v := range l {
		sum += float64(v)
	}
	return sum / float64(len(l))
}

// supported reports whether a population of n samples has at least ten
// samples beyond the q-quantile — the condition under which that percentile
// is a measurement rather than one or two outliers. A tail percentile is
// reported only when its population supports it.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// median of a small list of durations (0 when empty).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// poisson draws the arrival offsets of a Poisson process of the given rate
// (ops per virtual second) over [0, window).
func poisson(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	mean := 1e9 / rate
	due := make([]time.Duration, 0, int(rate*window.Seconds()*1.02)+16)
	for t := rng.ExpFloat64() * mean; t < float64(window); t += rng.ExpFloat64() * mean {
		due = append(due, time.Duration(t))
	}
	return due
}

// cutBefore returns the prefix of an ascending offset list that lies before
// limit.
func cutBefore(due []time.Duration, limit time.Duration) []time.Duration {
	return due[:sort.Search(len(due), func(i int) bool { return due[i] >= limit })]
}

// openLoop hands a fixed arrival schedule to a pool of worker procs. A free
// worker claims the next arrival and sleeps until it is due; when every
// worker is busy the arrival starts late, and because latency is timed from
// the due instant that wait is charged to the op (and to the ops queued
// behind it) instead of silently thinning the offered load.
type openLoop struct {
	start time.Duration   // virtual time of offset zero
	due   []time.Duration // ascending offsets from start
	next  int             // next unclaimed arrival
	dueTo int             // arrivals with due <= now, maintained by claim

	late       lat // dispatch - due, per op
	backlogMax int // most arrivals due but not yet started
	// leftover counts arrivals due inside the window that were still queued
	// when it closed (dispatched after start+window); they are drained and
	// timed, but counted as failed.
	window   time.Duration
	leftover int
}

// claim blocks p until its next arrival is due and returns the arrival's
// index and absolute due time; ok is false once the schedule is exhausted.
func (o *openLoop) claim(p *simnet.Proc) (i int, due time.Duration, ok bool) {
	if o.next >= len(o.due) {
		return 0, 0, false
	}
	i = o.next
	o.next++
	due = o.start + o.due[i]
	if now := p.Now(); now < due {
		p.Sleep(due - now)
	}
	o.started(i, p.Now())
	return i, due, true
}

// started records that arrival i was dispatched at virtual time now.
func (o *openLoop) started(i int, now time.Duration) {
	o.late.add(now - (o.start + o.due[i]))
	if now > o.start+o.window {
		o.leftover++
	}
	for o.dueTo < len(o.due) && o.start+o.due[o.dueTo] <= now {
		o.dueTo++
	}
	if b := o.dueTo - (i + 1); b > o.backlogMax {
		o.backlogMax = b
	}
}

// gapTracker records acknowledgement instants and answers "what was the
// longest interval with no ack inside [from, to]" — the definition of
// unavail_ms. The interval is anchored at the window edges, so a stall that
// begins before `from` or has not ended by `to` is measured up to the edge.
type gapTracker struct {
	acks []time.Duration // ascending (acks are recorded in virtual-time order)
}

func (g *gapTracker) ack(now time.Duration) { g.acks = append(g.acks, now) }

func (g *gapTracker) longest(from, to time.Duration) time.Duration {
	lo := sort.Search(len(g.acks), func(i int) bool { return g.acks[i] >= from })
	prev, max := from, time.Duration(0)
	for _, a := range g.acks[lo:] {
		if a > to {
			break
		}
		if a-prev > max {
			max = a - prev
		}
		prev = a
	}
	if to-prev > max {
		max = to - prev
	}
	return max
}
