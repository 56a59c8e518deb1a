package query

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// knnCandidatesPerObject is the distance-based pruning as a plain per-object
// scan: every object's uncertain region is bounded from scratch, computing
// each contained anchor's network distance again. KNNCandidates must return
// exactly what this returns.
func knnCandidatesPerObject(p *Pruner, infos []ObjectInfo, q geom.Point, k int, now model.Time) []model.ObjectID {
	if len(infos) == 0 {
		return nil
	}
	loc := p.g.NearestLocation(q)
	nodeDist := p.g.DistancesFromLocation(loc)
	si := make([]float64, len(infos))
	ls := make([]float64, len(infos))
	for n, info := range infos {
		ur := p.UncertainRegion(info, now)
		lo, hi := math.Inf(1), 0.0
		for _, a := range p.idx.Anchors() {
			if !ur.Contains(a.Pos) {
				continue
			}
			d := p.g.DistToLocation(loc, nodeDist, a.Loc)
			lo, hi = math.Min(lo, d), math.Max(hi, d)
		}
		if math.IsInf(lo, 1) {
			center := p.g.NearestLocation(p.dep.Reader(info.Reader).Pos)
			d := p.g.DistToLocation(loc, nodeDist, center)
			lo, hi = math.Max(0, d-ur.R), d+ur.R
		}
		si[n], ls[n] = lo, hi
	}
	sorted := append([]float64(nil), ls...)
	sort.Float64s(sorted)
	f := sorted[min(k, len(sorted))-1]
	var out []model.ObjectID
	for n, info := range infos {
		if si[n] <= f {
			out = append(out, info.Object)
		}
	}
	return out
}

// TestKNNPruneMatchesPerObjectScan: the shared anchor distances and the
// per-region memo change no candidate list. Random office plans, random
// object summaries drawn so that many objects share a (reader, last-seen)
// region, random reader ranges so that some regions are too small to hold
// an anchor, and a random subset of unhealthy readers (whose regions grow
// by one range).
func TestKNNPruneMatchesPerObjectScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		src := rng.New(seed)
		plan := floorplan.RandomOffice(src, 1+src.Intn(3))
		g := walkgraph.MustBuild(plan)
		idx := anchor.MustBuildIndex(g, anchor.DefaultSpacing)
		// Ranges well under the 1 m anchor spacing leave fresh regions
		// without an anchor, exercising the device-center bound.
		dep := rfid.MustDeployUniform(plan, 6+src.Intn(20), src.Uniform(0.2, 3))
		p := NewPruner(g, idx, dep, 1.5)
		const now = model.Time(500)
		for round := 0; round < 8; round++ {
			unhealthy := make([]bool, dep.NumReaders())
			for i := range unhealthy {
				unhealthy[i] = src.Float64() < 0.3
			}
			p.SetUnhealthy(unhealthy)
			infos := make([]ObjectInfo, 20+src.Intn(200))
			for i := range infos {
				// Last-seen times from a handful of recent seconds (shared
				// regions, including zero-age ones too small for an anchor)
				// or anywhere in the last two minutes.
				last := now - model.Time(src.Intn(4))
				if src.Float64() < 0.3 {
					last = now - model.Time(src.Intn(120))
				}
				infos[i] = ObjectInfo{
					Object:   model.ObjectID(i),
					Reader:   model.ReaderID(src.Intn(dep.NumReaders())),
					LastSeen: last,
				}
			}
			b := plan.Bounds()
			for qn := 0; qn < 5; qn++ {
				q := geom.Pt(src.Uniform(b.Min.X, b.Max.X), src.Uniform(b.Min.Y, b.Max.Y))
				if qn%2 == 0 {
					// Next to a reader, where the nearest regions are the
					// small fresh ones.
					q = dep.Reader(model.ReaderID(src.Intn(dep.NumReaders()))).Pos
				}
				k := 1 + src.Intn(12)
				got := p.KNNCandidates(infos, q, k, now)
				want := knnCandidatesPerObject(p, infos, q, k, now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d: q=%v k=%d: got %d candidates %v, per-object scan %d %v",
						seed, round, q, k, len(got), got, len(want), want)
				}
			}
		}
	}
}
