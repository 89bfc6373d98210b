package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the smallest value with at least p% of the samples at or
// below it. It sorts samples in place and returns 0 for no samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	rank = max(1, min(rank, len(samples)))
	return samples[rank-1]
}

// tailChunk is how many consecutive samples each chunk percentile of
// latencies is taken over: ten beyond the p99.
const tailChunk = 1000

// latencies records one op class's latencies in memory that does not
// grow with the op count (so the benchmark's own bookkeeping stays out
// of max_rss_mib). Its percentiles are the median, over consecutive
// chunks of tailChunk samples in the order they were taken, of each
// chunk's percentile: a burst of slow ops (a shared disk's writeback, a
// stretch of CPU steal) then moves one chunk's value, not the run's. A
// class with fewer than two chunks keeps every sample and reports
// plain percentiles.
type latencies struct {
	n          int
	all        []time.Duration // every sample while n < 2*tailChunk
	chunk      []time.Duration
	p50s, p99s []float64
}

func (l *latencies) add(d time.Duration) {
	l.n++
	if l.n < 2*tailChunk {
		l.all = append(l.all, d)
	} else {
		l.all = nil
	}
	l.chunk = append(l.chunk, d)
	if len(l.chunk) == tailChunk {
		l.p50s = append(l.p50s, float64(percentile(l.chunk, 50)))
		l.p99s = append(l.p99s, float64(percentile(l.chunk, 99)))
		l.chunk = l.chunk[:0]
	}
}

// count is the number of samples; a nil class has none.
func (l *latencies) count() int {
	if l == nil {
		return 0
	}
	return l.n
}

func (l *latencies) p50() time.Duration { return l.pct(50) }
func (l *latencies) p99() time.Duration { return l.pct(99) }

func (l *latencies) pct(p float64) time.Duration {
	switch {
	case l == nil:
		return 0
	case l.n < 2*tailChunk:
		return percentile(slices.Clone(l.all), p)
	case p == 50:
		return time.Duration(median(l.p50s))
	default:
		return time.Duration(median(l.p99s))
	}
}

// median returns the median of values (mean of the middle pair for an
// even count), as Python's statistics.median does.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first and third quartiles of values by the
// method of Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so repeat mode reports the same spread the
// acceptance check computes.
func quartiles(values []float64) (q1, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	ld := len(v)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return v[0], v[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of values as a share of their
// median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mibPerS converts bytes moved in d to MiB/s.
func mibPerS(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}
