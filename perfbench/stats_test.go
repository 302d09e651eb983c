package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	cases := []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
		{0.01, 1, 999},
	}
	for _, c := range cases {
		v, beyond := percentile(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("percentile(1..1000, %v) = %v, %d beyond; want %v, %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
}

func TestPercentileSmallSamples(t *testing.T) {
	// With 10 samples, p99 is the maximum: nothing lies beyond it, so a
	// run this short cannot report p99 with ten samples beyond.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if v, beyond := percentile(xs, 99); v != 10 || beyond != 0 {
		t.Errorf("p99 of 10 samples = %v, %d beyond; want 10, 0", v, beyond)
	}
	if v, beyond := percentile(xs, 50); v != 5 || beyond != 5 {
		t.Errorf("p50 of 10 samples = %v, %d beyond; want 5, 5", v, beyond)
	}
	if v, beyond := percentile([]float64{7}, 99); v != 7 || beyond != 0 {
		t.Errorf("p99 of one sample = %v, %d beyond; want 7, 0", v, beyond)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
}

func TestLatencyMetricsMedianOverSegments(t *testing.T) {
	ms := time.Millisecond
	var segs [][]time.Duration
	for s := 0; s < 5; s++ {
		seg := make([]time.Duration, 10)
		for i := range seg {
			seg[i] = time.Duration(i+1) * ms // 1..10ms
			if s == 2 {
				seg[i] = 100 * ms // a stalled segment
			}
		}
		segs = append(segs, seg)
	}
	rep := &report{metrics: map[string]metric{}}
	latencyMetrics(rep, "x", segs)
	if got := rep.metrics["latency_p50_ms"].Value; got != 5 {
		t.Errorf("latency_p50_ms = %v, want 5", got)
	}
	if got := rep.metrics["latency_p75_ms"].Value; got != 8 {
		t.Errorf("latency_p75_ms = %v, want 8: one stalled segment moved it", got)
	}
	notes := map[string]float64{}
	for _, n := range rep.notes {
		notes[n.name] = n.value
	}
	if notes["x.p99_ms"] != 100 || notes["x.samples"] != 50 || notes["x.segments"] != 5 {
		t.Errorf("pooled notes = %v, want p99 100ms over 50 samples in 5 segments", notes)
	}
}
