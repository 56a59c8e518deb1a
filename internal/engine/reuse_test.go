package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/particle"
	"repro/internal/query"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// refPreprocess is preprocessing under the copying cache contract: Get and
// Put both clone the particle state, and every object is filtered and
// snapped again on every call, even when its state cannot move. It runs the
// objects serially and checks ctx once per object, like preprocessCtx with
// one worker, and counts its work into s.stats the same way.
func refPreprocess(s *System, ctx context.Context, candidates []model.ObjectID) (*anchor.Table, error) {
	now := s.col.Now()
	sorted := append([]model.ObjectID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	type task struct {
		obj     model.ObjectID
		entries []model.AggregatedReading
		dj      model.ReaderID
		cached  *particle.State
		st      *particle.State
		dist    map[anchor.ID]float64
	}
	var tasks []task
	for i, obj := range sorted {
		if i > 0 && obj == sorted[i-1] {
			continue
		}
		entries := s.col.Aggregated(obj)
		if len(entries) == 0 {
			continue
		}
		_, dj := s.col.RecentDevices(obj)
		t := task{obj: obj, entries: entries, dj: dj}
		if cached, ok := s.cache.Get(obj, dj, now); ok {
			t.cached = cached.Clone()
		}
		tasks = append(tasks, t)
	}
	pool := particle.NewPool()
	for i := range tasks {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		t := &tasks[i]
		src := rng.Derive(s.cfg.Seed, int64(t.obj), int64(t.entries[len(t.entries)-1].Time))
		if t.cached != nil {
			t.st = t.cached
			s.filter.AdvancePool(pool, src, t.st, t.entries, now)
		} else {
			st, err := s.filter.RunPool(pool, src, t.obj, t.entries, now)
			if err != nil {
				continue
			}
			t.st = st
		}
		t.dist = t.st.AnchorDistribution(s.idx)
	}
	tab := anchor.NewTable()
	for _, t := range tasks {
		if t.st == nil {
			continue
		}
		if t.cached != nil {
			s.stats.FiltersResumed++
		} else {
			s.stats.FiltersRun++
		}
		s.cache.Put(t.st.Clone(), t.dj)
		tab.SetDistribution(t.obj, t.dist)
	}
	if ctx != nil && ctx.Err() != nil {
		return tab, &query.DeadlineError{Stage: "preprocess", Err: ctx.Err()}
	}
	return tab, nil
}

// countdownCtx is a context whose deadline passes after a fixed number of
// Err checks, which cuts a one-worker preprocess after exactly that many
// objects, deterministically. It is not safe for concurrent Err calls.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.DeadlineExceeded
}

// diffTables compares two preprocessing tables bit for bit.
func diffTables(a, b *anchor.Table) string {
	oa, ob := a.Objects(), b.Objects()
	if fmt.Sprint(oa) != fmt.Sprint(ob) {
		return fmt.Sprintf("objects %v vs %v", oa, ob)
	}
	for _, obj := range oa {
		if d := diffDistributions(a.DistributionOf(obj), b.DistributionOf(obj)); d != "" {
			return fmt.Sprintf("object %d: %s", obj, d)
		}
	}
	return ""
}

// TestCacheReuseMatchesCloningReference is the equivalence property of the
// ownership-handoff cache and the memoized distributions: on random streams,
// every preprocess answers bit for bit like refPreprocess, and the durable
// snapshot payload (cache states, hit/miss counts, Stats) stays byte
// identical. The streams mix several queries per stream second (the reuse
// case), silent seconds, objects that dwell or stay away past the 60 s coast
// and cache lifetime, ENTER invalidation as objects move between readers,
// and — with one worker — preprocesses cut by a deadline partway through
// the candidate list. Both filter paths run: the SoA kernel, and the AoS
// reference path selected by a non-systematic resampler.
func TestCacheReuseMatchesCloningReference(t *testing.T) {
	kernels := []struct {
		name  string
		tweak func(*particle.Config)
	}{
		{"soa", nil},
		{"aos-multinomial", func(c *particle.Config) { c.Resample = particle.Multinomial }},
	}
	for _, k := range kernels {
		for _, workers := range []int{1, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%s/workers=%d/seed=%d", k.name, workers, seed)
				t.Run(name, func(t *testing.T) {
					runReuseEquivalence(t, k.tweak, workers, seed)
				})
			}
		}
	}
}

func runReuseEquivalence(t *testing.T, tweak func(*particle.Config), workers int, seed int64) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.BatchSize = 2
	if tweak != nil {
		tweak(&cfg.Particle)
	}
	sys := MustNew(plan, dep, cfg)
	ref := MustNew(plan, dep, cfg)
	if tweak == nil && !sys.filter.SoAKernel() {
		t.Fatal("default config does not select the SoA kernel")
	}
	if tweak != nil && sys.filter.SoAKernel() {
		t.Fatal("multinomial resampler still selects the SoA kernel")
	}

	r := rand.New(rand.NewSource(seed))
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 8 + r.Intn(6)
	tc.DwellMin, tc.DwellMax = 5, 120
	tc.ChurnProb = 0.3
	tc.AwayMin, tc.AwayMax = 20, 100
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, seed+100)
	bounds := plan.Bounds()
	randomWindow := func() geom.Rect {
		w, h := 5+r.Float64()*40, 3+r.Float64()*20
		return geom.RectWH(bounds.Min.X+r.Float64()*(bounds.Width()-w), bounds.Min.Y+r.Float64()*(bounds.Height()-h), w, h)
	}
	randomPoint := func() geom.Point {
		return geom.Pt(bounds.Min.X+r.Float64()*bounds.Width(), bounds.Min.Y+r.Float64()*bounds.Height())
	}

	var queries, cuts, coasted int
	for sec := 0; sec < 300; sec++ {
		tm, raws := world.Step()
		if r.Float64() < 0.15 {
			raws = nil // a silent second: the clock moves, no reading arrives
		}
		for _, s := range []*System{sys, ref} {
			if err := s.Ingest(tm, clone(raws)); err != nil {
				t.Fatalf("second %d: ingest: %v", tm, err)
			}
		}
		if sec < 20 {
			continue
		}
		for q := r.Intn(4); q > 0; q-- {
			var cands []model.ObjectID
			var window geom.Rect
			var point geom.Point
			kind := r.Intn(4)
			switch kind {
			case 0:
				window = randomWindow()
				cands = sys.RangeCandidates([]geom.Rect{window})
			case 1:
				point = randomPoint()
				cands = sys.KNNCandidates(point, 1+r.Intn(5))
			case 2:
				cands = sys.KnownObjects()
			default:
				known := sys.KnownObjects()
				if len(known) == 0 {
					continue
				}
				obj := known[r.Intn(len(known))]
				cands = []model.ObjectID{obj, obj} // duplicates collapse
			}
			for _, e := range sys.cache.Dump() {
				if e.State.Time < sys.Now() && sys.filter.Settled(&e.State, sys.col.Aggregated(e.State.Object), sys.Now()) {
					coasted++
				}
			}
			var ctxA, ctxB context.Context = context.Background(), context.Background()
			if workers == 1 && r.Float64() < 0.25 {
				left := r.Intn(len(cands) + 1)
				ctxA = &countdownCtx{Context: context.Background(), left: left}
				ctxB = &countdownCtx{Context: context.Background(), left: left}
				cuts++
			}
			tabA, errA := sys.preprocessCtx(ctxA, cands)
			tabB, errB := refPreprocess(ref, ctxB, cands)
			queries++
			if (errA == nil) != (errB == nil) {
				t.Fatalf("second %d: deadline errors differ: %v vs reference %v", tm, errA, errB)
			}
			if d := diffTables(tabA, tabB); d != "" {
				t.Fatalf("second %d query %d (kind %d, %d candidates): table differs from reference: %s", tm, queries, kind, len(cands), d)
			}
			switch kind {
			case 0:
				if !resultSetsEqual(sys.eval.Range(tabA, window), ref.eval.Range(tabB, window)) {
					t.Fatalf("second %d: range answers differ", tm)
				}
			case 1:
				if !resultSetsEqual(sys.eval.KNN(tabA, point, 3), ref.eval.KNN(tabB, point, 3)) {
					t.Fatalf("second %d: kNN answers differ", tm)
				}
			}
		}
		if sec%25 == 0 || sec == 299 {
			if !bytes.Equal(snapshotBytes(t, sys), snapshotBytes(t, ref)) {
				t.Fatalf("second %d: snapshot payload differs from the reference", tm)
			}
		}
	}
	tel := sys.Telemetry()
	if tel.runsReused.Value() == 0 || tel.runsResumed.Value() == tel.runsReused.Value() {
		t.Errorf("vacuous: %d reused of %d resumed runs", tel.runsReused.Value(), tel.runsResumed.Value())
	}
	if tel.cacheEvictions.Value() == 0 {
		t.Error("vacuous: no cache entry was ever invalidated or expired")
	}
	if coasted == 0 {
		t.Error("vacuous: no cached state ever coasted out before a query time")
	}
	if workers == 1 && cuts == 0 {
		t.Error("vacuous: no deadline-cut preprocess")
	}
	t.Logf("%d queries, %d cut, %d reused / %d resumed runs, %d evictions, %d coasted-out cached states",
		queries, cuts, tel.runsReused.Value(), tel.runsResumed.Value(), tel.cacheEvictions.Value(), coasted)
}

// TestReusedDistributionTelemetry: a preprocess repeated at the same stream
// second reuses every memoized distribution, and its telemetry says so
// without inventing work. Each reuse counts as a resumed cache hit and in
// repro_filter_reused_total; no stage histogram observes it; the trace ring
// gets a zero-work entry marked Reused, not the state's earlier LastRun;
// and the request trace carries no per-object stage spans.
func TestReusedDistributionTelemetry(t *testing.T) {
	sys := telemetrySystem(t, 60, nil)
	tel := sys.Telemetry()
	objs := sys.KnownObjects()
	first := sys.Preprocess(objs)
	if len(first.Objects()) == 0 {
		t.Fatal("vacuous: nothing preprocessed")
	}
	stats := sys.Stats()
	resumed, reused := tel.runsResumed.Value(), tel.runsReused.Value()
	counts := func() [4]uint64 {
		return [4]uint64{tel.stagePredict.Count(), tel.stageReweight.Count(), tel.stageResample.Count(), tel.stageSnap.Count()}
	}
	stages, ring := counts(), tel.Trace.Total()

	tracer := trace.New(trace.Config{Sample: 1, Seed: 3})
	tc := tracer.Start("repeat")
	again, err := sys.preprocessCtx(trace.With(context.Background(), tc), objs)
	tracer.Finish(tc)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffTables(first, again); d != "" {
		t.Fatalf("repeat answered differently: %s", d)
	}
	n := uint64(len(first.Objects()))
	if got := tel.runsReused.Value() - reused; got != n {
		t.Errorf("reused counter grew by %d, want %d", got, n)
	}
	if got := tel.runsResumed.Value() - resumed; got != n {
		t.Errorf("resumed counter grew by %d, want %d", got, n)
	}
	if st := sys.Stats(); st.FiltersResumed-stats.FiltersResumed != int(n) || st.FiltersRun != stats.FiltersRun {
		t.Errorf("Stats moved %+v -> %+v, want %d more resumed and no full run", stats, st, n)
	}
	if got := counts(); got != stages {
		t.Errorf("stage histogram counts moved %v -> %v on a reuse", stages, got)
	}
	if got := tel.Trace.Total() - ring; got != n {
		t.Fatalf("trace ring grew by %d, want %d", got, n)
	}
	now := int64(sys.Now())
	traces := tel.Trace.Snapshot()
	for _, tr := range traces[len(traces)-int(n):] {
		if !tr.Reused || !tr.Resumed || tr.Steps != 0 || tr.SimFrom != tr.SimTo || tr.SimTo > now ||
			tr.PredictMicros != 0 || tr.SnapMicros != 0 || tr.ESS <= 0 {
			t.Errorf("reuse trace %+v is not a zero-work reuse entry", tr)
		}
	}
	for name := range spansByName(tracer.Snapshot()[0]) {
		switch name {
		case "predict", "reweight", "resample", "snap":
			t.Errorf("reused preprocess recorded a %q span", name)
		}
	}
}
