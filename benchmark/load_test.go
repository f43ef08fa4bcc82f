package main

import (
	"math/rand"
	"testing"
	"time"
)

const (
	usec = time.Microsecond
	msec = time.Millisecond
)

// "The highest percentile with at least ten samples beyond it": a percentile
// is reported only from the sample count at which ten samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q     float64
		first int // smallest population that supports q
	}{{0.75, 40}, {0.90, 100}, {0.95, 200}, {0.99, 1000}, {0.999, 10000}} {
		if supported(c.first-1, c.q) || !supported(c.first, c.q) {
			t.Errorf("p%g must be supported from exactly %d samples", c.q*100, c.first)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.01, 10}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty population must read 0")
	}
}

// An open loop with one worker and a 10 us service time against arrivals at
// 0, 5, 6 and 100 us: the second and third start late, and their latency is
// timed from when they were due, not from when they started.
func TestOpenLoopDueTimeLatencyAndLateness(t *testing.T) {
	o := &openLoop{start: 1 * msec, due: []time.Duration{0, 5 * usec, 6 * usec, 100 * usec}, window: 200 * usec}
	const service = 10 * usec
	now := o.start
	var latency []time.Duration
	for i := range o.due {
		due := o.start + o.due[i]
		if now < due {
			now = due // the worker was idle and slept until the arrival
		}
		o.started(i, now)
		now += service
		latency = append(latency, now-due)
	}
	wantLate := []int64{0, int64(5 * usec), int64(14 * usec), 0}
	for i, w := range wantLate {
		if o.late[i] != w {
			t.Errorf("lateness[%d] = %v, want %v", i, time.Duration(o.late[i]), time.Duration(w))
		}
	}
	wantLat := []time.Duration{10 * usec, 15 * usec, 24 * usec, 10 * usec}
	for i, w := range wantLat {
		if latency[i] != w {
			t.Errorf("latency[%d] = %v, want %v (timed from the due instant)", i, latency[i], w)
		}
	}
	// When arrival 1 started (t=10 us) arrival 2 was already due: backlog 1.
	if o.backlogMax != 1 {
		t.Errorf("backlogMax = %d, want 1", o.backlogMax)
	}
	if o.leftover != 0 {
		t.Errorf("leftover = %d, want 0: everything started inside the window", o.leftover)
	}
}

// Arrivals due inside the window but dispatched after it closed are what
// the window leaves behind.
func TestOpenLoopEndOfWindowBacklog(t *testing.T) {
	o := &openLoop{start: 0, due: []time.Duration{10 * usec, 20 * usec, 30 * usec, 40 * usec}, window: 50 * usec}
	o.started(0, 10*usec)
	o.started(1, 45*usec)
	o.started(2, 51*usec) // a stall: these two were due at 30 and 40 us
	o.started(3, 60*usec)
	if o.leftover != 2 {
		t.Errorf("leftover = %d, want 2", o.leftover)
	}
	if o.backlogMax != 2 {
		t.Errorf("backlogMax = %d, want 2 (arrivals 2 and 3 due while 1 started)", o.backlogMax)
	}
}

func TestGapTracker(t *testing.T) {
	var g gapTracker
	for _, a := range []time.Duration{1, 2, 3, 10, 11, 30, 31} {
		g.ack(a * msec)
	}
	for _, c := range []struct {
		from, to, want time.Duration
	}{
		{0, 40, 19},  // 11 -> 30
		{4, 12, 6},   // anchored at 4: 4 -> 10
		{11, 29, 18}, // the stall has not ended by the edge: 11 -> 29
		{12, 28, 16}, // no ack inside at all: the whole interval
		{0, 3, 1},
	} {
		if got := g.longest(c.from*msec, c.to*msec); got != c.want*msec {
			t.Errorf("longest(%d, %d) = %v, want %v ms", c.from, c.to, got, c.want)
		}
	}
}

func TestPoissonIsSeededAndCutIsAPrefix(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(7)), 100_000, 100*msec)
	b := poisson(rand.New(rand.NewSource(7)), 100_000, 100*msec)
	if len(a) != len(b) || len(a) < 9000 || len(a) > 11000 {
		t.Fatalf("len %d vs %d, want equal and about 10000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= 100*msec {
			t.Fatalf("arrival %d: %v vs %v (must repeat, ascend, and stay inside the window)", i, a[i], b[i])
		}
	}
	q := cutBefore(a, 25*msec)
	if len(q) == 0 || q[len(q)-1] >= 25*msec || a[len(q)] < 25*msec {
		t.Errorf("cutBefore: %d arrivals, last %v, next %v", len(q), q[len(q)-1], a[len(q)])
	}
}

func TestSliceMinTakesEachSliceFromItsFastestRepeat(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms ...int) []time.Time {
		out := []time.Time{t0}
		for _, m := range ms {
			out = append(out, out[len(out)-1].Add(time.Duration(m)*msec))
		}
		return out
	}
	// Three repeats of three slices; interference hits a different slice in each.
	total, same := sliceMin([][]time.Time{at(10, 50, 10), at(40, 10, 10), at(10, 10, 90)})
	if !same || total != 30*msec {
		t.Errorf("sliceMin = %v (same %v), want 30ms", total, same)
	}
	if _, same := sliceMin([][]time.Time{at(10, 10), at(10)}); same {
		t.Error("repeats with different tick counts must be reported")
	}
}

func TestMedianAndMeanDur(t *testing.T) {
	ds := []time.Duration{5, 1, 9, 3}
	if medianDur(ds) != 4 || meanDur(ds) != 4 || medianDur(ds[:3]) != 5 || medianDur(nil) != 0 {
		t.Errorf("median %v mean %v", medianDur(ds), meanDur(ds))
	}
}
