package main

import (
	"testing"
	"time"
)

func TestMinSamples(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}} {
		if got := minSamples(c.q); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	p99, err := Percentile(xs, 0.99)
	if err != nil || p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p99, err)
	}
	p50, err := Percentile(seq(1000), 0.5)
	if err != nil || p50 != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", p50, err)
	}
	// Ten samples lie beyond the p99 of 1000: the rule's minimum.
	beyond := 0
	for _, x := range seq(1000) {
		if x > p99 {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond p99, want %d", beyond, minBeyond)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := Percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted; the rule needs 1000")
	}
	if _, err := Percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples accepted; the rule needs 20")
	}
}

// blocksOf cuts xs into n blocks of latencies for kind.
func blocksOf(kind string, xs []float64, n int) []Block {
	var bl []Block
	for b := 0; b < n; b++ {
		o := &Outcome{Lat: map[string][]float64{kind: xs[b*len(xs)/n : (b+1)*len(xs)/n]}}
		bl = append(bl, Block{Wall: time.Second, Outcome: o})
	}
	return bl
}

func TestLatencyOmitsOrFailsTail(t *testing.T) {
	m := newMetrics()
	if err := m.latency("occupancy", kindOccupancy, blocksOf(kindOccupancy, seq(50), 5), false); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.m["occupancy_p90_ms"]; ok {
		t.Fatal("p90 reported although not requested")
	}
	if got := m.m["occupancy_p50_ms"]; got.Samples != 50 || got.Unit != "ms" {
		t.Fatalf("occupancy_p50_ms = %+v", got)
	}
	if err := m.latency("range", kindRange, blocksOf(kindRange, seq(99), 5), true); err == nil {
		t.Fatal("p90 over 99 samples did not fail")
	}
	if err := m.latency("ingest", kindIngest, blocksOf(kindIngest, seq(250), 5), true); err != nil {
		t.Fatal(err)
	}
	if got := m.m["ingest_p90_ms"]; got.Value != 225 || got.Samples != 250 {
		t.Fatalf("ingest_p90_ms = %+v, want the pooled p90 225 over 250", got)
	}
}

func TestLatencyP50IsBlockMedian(t *testing.T) {
	// Five blocks of 20 samples; one block is ten times slower (a burst of
	// outside interference). The block median ignores it.
	var xs []float64
	for b := 0; b < 5; b++ {
		for i := 0; i < 20; i++ {
			v := float64(10 + b)
			if b == 4 {
				v = 1000
			}
			xs = append(xs, v)
		}
	}
	m := newMetrics()
	if err := m.latency("range", kindRange, blocksOf(kindRange, xs, 5), false); err != nil {
		t.Fatal(err)
	}
	if got := m.m["range_p50_ms"].Value; got != 12 {
		t.Fatalf("range_p50_ms = %v, want 12", got)
	}
	// Blocks too small for their own p50 fall back to all samples.
	m = newMetrics()
	if err := m.latency("occupancy", kindOccupancy, blocksOf(kindOccupancy, seq(25), 5), false); err != nil {
		t.Fatal(err)
	}
	if got := m.m["occupancy_p50_ms"].Value; got != 13 {
		t.Fatalf("occupancy_p50_ms = %v, want 13", got)
	}
}

func TestLatencyTailIsBlockMedian(t *testing.T) {
	// Five blocks of 100 samples 1..100 shifted by the block index; the
	// last block is slow. Each block has enough samples for its own p90,
	// so the tail is the median of the five block p90s.
	var xs []float64
	for b := 0; b < 5; b++ {
		for i := 1; i <= 100; i++ {
			v := float64(i + b)
			if b == 4 {
				v *= 10
			}
			xs = append(xs, v)
		}
	}
	m := newMetrics()
	if err := m.latency("ingest", kindIngest, blocksOf(kindIngest, xs, 5), true); err != nil {
		t.Fatal(err)
	}
	if got := m.m["ingest_p90_ms"]; got.Value != 92 || got.Samples != 500 {
		t.Fatalf("ingest_p90_ms = %+v, want the block median 92 over 500", got)
	}
}

func TestSplitBlocks(t *testing.T) {
	var rs []opResult
	walls := make([]time.Duration, 10)
	for s := 0; s < 10; s++ {
		walls[s] = time.Duration(s+1) * time.Millisecond
		rs = append(rs,
			opResult{Kind: kindIngest, Sec: s, Status: 200, Readings: 1, Body: []byte(`{"received":1,"accepted":1}`)},
			opResult{Kind: kindOccupancy, Sec: s, Status: 200, Body: []byte(`{"occupancy":[{"room":"a","p":1}]}`)})
	}
	bl := splitBlocks(rs, walls, 5)
	if len(bl) != 5 {
		t.Fatalf("%d blocks", len(bl))
	}
	for i, b := range bl {
		if b.Outcome.Attempted != 4 || b.Outcome.Acked != 2 {
			t.Errorf("block %d: attempted %d acked %d", i, b.Outcome.Attempted, b.Outcome.Acked)
		}
		if want := time.Duration(4*i+3) * time.Millisecond; b.Wall != want {
			t.Errorf("block %d wall %v, want %v", i, b.Wall, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}
