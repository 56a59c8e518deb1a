package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail is only as trustworthy as the samples that define it, so p99 needs
// at least 1000 samples, p90 at least 100 and p50 at least 20.
const minBeyond = 10

// minSamples returns the smallest sample count that may report percentile
// q (0 < q < 1) under the minBeyond rule.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// Percentile returns the nearest-rank q-quantile of xs (which it sorts),
// or an error when xs has too few samples for q under the minBeyond rule.
func Percentile(xs []float64, q float64) (float64, error) {
	if n := minSamples(q); len(xs) < n {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", q*100, n, len(xs))
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank], nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count); it sorts xs. It needs no tail rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Metric is one reported figure: value, unit and the samples behind it.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// Metrics is an ordered set of reported figures: m goes to the result
// line, notes only to the printed table.
type Metrics struct {
	names []string
	m     map[string]Metric
	notes map[string]Metric
}

func newMetrics() *Metrics { return &Metrics{m: map[string]Metric{}, notes: map[string]Metric{}} }

// Set records a figure of the result line.
func (ms *Metrics) Set(name, unit string, v float64, samples int) {
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// Note records a figure that is printed in the table but is not part of
// the result line.
func (ms *Metrics) Note(name, unit string, v float64, samples int) {
	if _, ok := ms.notes[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.notes[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// tailQ is the tail percentile every latency reports besides its p50.
// With the minBeyond rule it needs 100 samples, which every workload's
// smallest request count (ingest on the query workloads) reaches.
const tailQ = 0.9

// latency adds name_p50_ms and, when withTail, name_p90_ms for request
// kind over blocks. Each percentile is the median over blocks of the
// blocks' own percentiles when every block has enough samples for it, else
// the percentile of all samples. A percentile below the sample rule even
// then is an error: the workload was sized to produce it.
func (ms *Metrics) latency(name, kind string, blocks []Block, withTail bool) error {
	qs := []float64{0.5}
	if withTail {
		qs = append(qs, tailQ)
	}
	var xs []float64
	for _, b := range blocks {
		xs = append(xs, b.Outcome.Lat[kind]...)
	}
	for _, q := range qs {
		metric := fmt.Sprintf("%s_p%d_ms", name, int(math.Round(q*100)))
		perBlock := true
		for _, b := range blocks {
			perBlock = perBlock && len(b.Outcome.Lat[kind]) >= minSamples(q)
		}
		var v float64
		var err error
		if perBlock {
			v = blockMedian(blocks, func(b Block) float64 {
				v, _ := Percentile(append([]float64(nil), b.Outcome.Lat[kind]...), q)
				return v
			})
		} else if v, err = Percentile(append([]float64(nil), xs...), q); err != nil {
			return fmt.Errorf("%s: %w", metric, err)
		}
		ms.Set(metric, "ms", v, len(xs))
	}
	return nil
}

// timedBlocks is how many contiguous blocks the timed phase is cut into.
// Rates and medians are reported as the median over blocks, so a burst of
// interference from outside the benchmark moves at most one or two blocks
// instead of the whole figure.
const timedBlocks = 5

// Block is one contiguous stretch of the timed phase.
type Block struct {
	Wall    time.Duration
	Outcome *Outcome
}

// splitBlocks cuts results (in schedule order) into n blocks of whole
// stream seconds, using walls, the wall time of each second.
func splitBlocks(rs []opResult, walls []time.Duration, n int) []Block {
	if n > len(walls) {
		n = len(walls)
	}
	blocks := make([]Block, 0, n)
	i := 0
	for b := 0; b < n; b++ {
		lo, hi := b*len(walls)/n, (b+1)*len(walls)/n
		var wall time.Duration
		for _, w := range walls[lo:hi] {
			wall += w
		}
		j := i
		for j < len(rs) && rs[j].Sec < hi {
			j++
		}
		blocks = append(blocks, Block{Wall: wall, Outcome: Check(rs[i:j])})
		i = j
	}
	return blocks
}

// blockMedian is the median over blocks of f(block).
func blockMedian(blocks []Block, f func(Block) float64) float64 {
	xs := make([]float64, len(blocks))
	for i, b := range blocks {
		xs[i] = f(b)
	}
	return median(xs)
}
