package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		d = append(d, time.Duration(i))
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(d, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]time.Duration{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	// Nearest rank never interpolates: p50 of 4 samples is the 2nd.
	if got := percentile([]time.Duration{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{105, 129, 87, 86, 111, 111, 89, 81, 108, 92}, 86.75, 111},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLatenciesChunks(t *testing.T) {
	// Under two chunks: plain percentiles over every sample.
	var small latencies
	for i := 1500; i >= 1; i-- {
		small.add(time.Duration(i))
	}
	if got := small.p99(); got != 1485 {
		t.Errorf("p99 of 1..1500 = %v, want 1485", got)
	}
	if got := small.p50(); got != 750 {
		t.Errorf("p50 of 1..1500 = %v, want 750", got)
	}
	// Three chunks of 1..1000; a burst of slow ops fills the middle
	// chunk's tail. The burst moves that chunk's p99 only.
	var l latencies
	var all []time.Duration
	for c := 0; c < 3; c++ {
		for i := 1; i <= tailChunk; i++ {
			d := time.Duration(i + c)
			if c == 1 && i > 900 {
				d = 1e6
			}
			l.add(d)
			all = append(all, d)
		}
	}
	if got := l.p99(); got != 992 { // chunk p99s 990, 1e6, 992
		t.Errorf("chunked p99 = %v, want 992", got)
	}
	if got := percentile(all, 99); got != 1e6 {
		t.Errorf("plain p99 = %v, want the burst's 1e6", got)
	}
	if got := l.p50(); got != 501 {
		t.Errorf("chunked p50 = %v, want 501", got)
	}
	if l.count() != 3*tailChunk || l.all != nil {
		t.Errorf("count %d, kept %d samples", l.count(), len(l.all))
	}
	var none *latencies
	if none.count() != 0 || none.p50() != 0 {
		t.Error("nil class not empty")
	}
}
