// Package metrics provides the measurement primitives the benchmark harness
// uses to regenerate the paper's tables and figures: latency histograms with
// percentiles (Figs 8, 9, 11a), size CDFs (Fig 1), and fixed-interval
// throughput time series (Fig 12).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Histogram is a log-bucketed latency histogram covering 1 ns .. ~18 h with
// ~4% relative bucket width. It keeps the exact sum and count so means are
// exact; percentiles are bucket-resolution.
type Histogram struct {
	buckets [bucketCount]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	// 64 powers of two, 16 sub-buckets each.
	subBits     = 4
	subCount    = 1 << subBits
	bucketCount = 64 * subCount
)

func bucketOf(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	v := uint64(d)
	exp := 63 - leadingZeros(v)
	var sub uint64
	if exp > subBits {
		sub = (v >> (uint(exp) - subBits)) & (subCount - 1)
	} else {
		sub = (v << (subBits - uint(exp))) & (subCount - 1)
	}
	idx := exp*subCount + int(sub)
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

func bucketLow(idx int) time.Duration {
	exp := idx / subCount
	sub := idx % subCount
	base := uint64(1) << uint(exp)
	var v uint64
	if exp > subBits {
		v = base + uint64(sub)<<(uint(exp)-subBits)
	} else {
		v = base + uint64(sub)>>(subBits-uint(exp))
	}
	return time.Duration(v)
}

func leadingZeros(v uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact total of recorded samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the exact mean of recorded samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min and Max return the observed extremes.
func (h *Histogram) Min() time.Duration { return h.min }
func (h *Histogram) Max() time.Duration { return h.max }

// Percentile returns the q-quantile (0 < q <= 1) at bucket resolution.
func (h *Histogram) Percentile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Summary formats count/mean/p50/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean().Round(10*time.Nanosecond), h.Percentile(0.5), h.Percentile(0.99), h.max)
}

// ThroughputSampler accumulates operation-completion timestamps into
// fixed-width intervals, producing the real-time throughput series of
// Fig 12 (10 ms samples in the paper).
type ThroughputSampler struct {
	interval time.Duration
	counts   []uint64
}

// NewThroughputSampler returns a sampler with the given interval width.
func NewThroughputSampler(interval time.Duration) *ThroughputSampler {
	if interval <= 0 {
		panic("metrics: non-positive sampler interval")
	}
	return &ThroughputSampler{interval: interval}
}

// Observe records one operation completing at virtual time t.
func (ts *ThroughputSampler) Observe(t time.Duration) {
	idx := int(t / ts.interval)
	for len(ts.counts) <= idx {
		ts.counts = append(ts.counts, 0)
	}
	ts.counts[idx]++
}

// Series returns (interval start, ops/sec) points.
func (ts *ThroughputSampler) Series() []ThroughputPoint {
	out := make([]ThroughputPoint, len(ts.counts))
	perSec := float64(time.Second) / float64(ts.interval)
	for i, c := range ts.counts {
		out[i] = ThroughputPoint{At: time.Duration(i) * ts.interval, OpsPerSec: float64(c) * perSec}
	}
	return out
}

// ThroughputPoint is one sample of a throughput time series.
type ThroughputPoint struct {
	At        time.Duration
	OpsPerSec float64
}

// SizeCDF collects integer samples (e.g. write sizes in bytes) and reports
// their empirical CDF, used for Fig 1(a)-(c).
type SizeCDF struct {
	samples []int64
	sorted  bool
}

// Add records one sample.
func (c *SizeCDF) Add(v int64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// Count returns the number of samples.
func (c *SizeCDF) Count() int { return len(c.samples) }

func (c *SizeCDF) sortIfNeeded() {
	if !c.sorted {
		sort.Slice(c.samples, func(i, j int) bool { return c.samples[i] < c.samples[j] })
		c.sorted = true
	}
}

// Quantile returns the q-quantile of the samples.
func (c *SizeCDF) Quantile(q float64) int64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sortIfNeeded()
	idx := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.samples) {
		idx = len(c.samples) - 1
	}
	return c.samples[idx]
}

// Points returns up to n evenly spaced (value, cumulative fraction) points.
func (c *SizeCDF) Points(n int) []CDFPoint {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.sortIfNeeded()
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n)
		out = append(out, CDFPoint{Value: c.Quantile(f), Fraction: f})
	}
	return out
}

// CDFPoint is one point on an empirical CDF.
type CDFPoint struct {
	Value    int64
	Fraction float64
}

// Table renders rows of cells as an aligned text table; the harness uses it
// to print paper-style tables.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// HumanBytes formats a byte count compactly (e.g. "512B", "8.0KB", "64MB").
func HumanBytes(n int64) string {
	switch {
	case n < 1024:
		return fmt.Sprintf("%dB", n)
	case n < 1024*1024:
		return trimZero(fmt.Sprintf("%.1fKB", float64(n)/1024))
	case n < 1024*1024*1024:
		return trimZero(fmt.Sprintf("%.1fMB", float64(n)/(1024*1024)))
	default:
		return trimZero(fmt.Sprintf("%.1fGB", float64(n)/(1024*1024*1024)))
	}
}

func trimZero(s string) string { return strings.Replace(s, ".0", "", 1) }
