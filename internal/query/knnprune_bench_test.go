package query

import (
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// BenchmarkKNNPrune measures the kNN distance-based pruning over 500 objects
// on the default office: most were read within the last few seconds, so
// many share an uncertain region, and the rest are up to two minutes stale.
// Each op prunes for one of 16 fixed query points with k = 5.
func BenchmarkKNNPrune(b *testing.B) {
	plan := floorplan.DefaultOffice()
	g := walkgraph.MustBuild(plan)
	idx := anchor.MustBuildIndex(g, anchor.DefaultSpacing)
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	p := NewPruner(g, idx, dep, 1.5)
	src := rng.New(7)
	const now = model.Time(1000)
	infos := make([]ObjectInfo, 500)
	for i := range infos {
		last := now - model.Time(src.Intn(4))
		if src.Float64() < 0.3 {
			last = now - model.Time(src.Intn(120))
		}
		infos[i] = ObjectInfo{Object: model.ObjectID(i), Reader: model.ReaderID(src.Intn(dep.NumReaders())), LastSeen: last}
	}
	bounds := plan.Bounds()
	qs := make([]geom.Point, 16)
	for i := range qs {
		qs[i] = geom.Pt(src.Uniform(bounds.Min.X, bounds.Max.X), src.Uniform(bounds.Min.Y, bounds.Max.Y))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.KNNCandidates(infos, qs[i%len(qs)], 5, now)
	}
}
