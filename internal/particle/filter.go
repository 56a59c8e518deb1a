package particle

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/walkgraph"
)

// Filter runs the paper's Algorithm 2 (Particle Filter) for individual
// objects: initialize particles in the activation range of the older of the
// object's two retained detecting devices, step them through the motion
// model at one-second resolution, reweight and resample at every detected
// second, and stop MaxCoastSeconds past the last reading.
//
// The coverage predicates of the inner loop (is this particle inside the
// detecting reader's range? inside any range? inside a room?) are answered
// by the precomputed edge-coverage index (rfid.Coverage) instead of
// per-particle 2-D geometry; the results are bit-for-bit identical (see
// Config.DisableCoverageIndex).
type Filter struct {
	cfg Config
	g   *walkgraph.Graph
	dep *rfid.Deployment
	// et is the graph's flat per-edge table (kind, door position) used by
	// the hot-loop classifications; nt its per-node counterpart used by the
	// SoA motion kernel.
	et *walkgraph.EdgeTable
	nt *walkgraph.NodeTable
	// cov is the edge-coverage index; nil selects the geometric reference
	// path.
	cov *rfid.Coverage
	// spans is cov's per-edge span table, cached so the per-particle loops
	// scan it without a method call per particle.
	spans [][]rfid.CoverSpan
	// met holds the optional stage telemetry; timed gates all timing work so
	// an uninstrumented filter pays nothing (see Instrument).
	met   Metrics
	timed bool
	// unhealthy flags readers whose ranges must not contribute negative
	// evidence (a dead reader's silence says nothing about the object). It is
	// nil when every reader is healthy, which keeps the common path — and its
	// float operations — exactly as without health tracking.
	unhealthy []bool
	// maxNs, when positive, caps the particle count of newly initialized
	// states below cfg.Ns: the degraded-mode budget under overload. Cached
	// states keep their existing particle count.
	maxNs int
	// soa records whether RunPool/AdvancePool may step particles on the
	// structure-of-arrays kernel (see soa.go): it requires the coverage
	// index, the package's own Systematic resampler (the kernel inlines
	// Algorithm 1), and Config.DisableSoAKernel unset.
	soa bool
}

// Metrics are the filter's optional telemetry sinks. Every field may be nil
// independently; recording is atomic and allocation-free, so the
// steady-state loop's zero-allocation contract holds with instrumentation
// enabled (pinned by TestInstrumentedAdvanceZeroAllocs).
type Metrics struct {
	// Predict, Reweight, and Resample receive the per-stage wall time in
	// seconds of each Run/Advance call. Reweight includes the silent-second
	// negative update (both are observation incorporation); Resample
	// includes roughening.
	Predict, Reweight, Resample *obs.Histogram
	// ParticleSteps accumulates particle × second motion steps, the
	// filter's fundamental unit of work.
	ParticleSteps *obs.Counter
}

// Instrument attaches telemetry sinks and enables per-run stage timing
// (State.LastRun). Call it before the filter is shared across goroutines;
// a zero Metrics still enables timing alone.
func (f *Filter) Instrument(m Metrics) {
	f.met = m
	f.timed = true
}

// RunStats is the per-stage wall-time breakdown of one Run/Advance call,
// recorded on the State when the filter is instrumented.
type RunStats struct {
	// From and To bound the simulated seconds this call advanced over.
	From, To model.Time
	// Predict, Reweight, and Resample are the stage wall times. Reweight
	// includes negative updates; Resample includes roughening.
	Predict, Reweight, Resample time.Duration
	// Steps counts simulated seconds stepped; Detections the detected
	// seconds incorporated; Resamples the detected-second resampling passes.
	Steps, Detections, Resamples int
	// ESS is the effective sample size of the final particle set, computed
	// from unnormalized weights (Ns means healthy, ~1 means degenerate).
	ESS float64
}

// New builds a Filter. The configuration is validated once here, and the
// coverage index is built unless cfg.DisableCoverageIndex is set.
func New(cfg Config, g *walkgraph.Graph, dep *rfid.Deployment) (*Filter, error) {
	var cov *rfid.Coverage
	if !cfg.DisableCoverageIndex {
		cov = rfid.BuildCoverage(g, dep)
	}
	return NewWithCoverage(cfg, g, dep, cov)
}

// NewWithCoverage builds a Filter around an existing coverage index, so a
// System that already built one (engine.New does) shares it instead of
// recomputing. A nil cov selects the geometric reference path regardless of
// cfg.DisableCoverageIndex.
func NewWithCoverage(cfg Config, g *walkgraph.Graph, dep *rfid.Deployment, cov *rfid.Coverage) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Filter{cfg: cfg, g: g, dep: dep, et: g.EdgeTable(), nt: g.NodeTable(), cov: cov}
	if cov != nil {
		f.spans = cov.SpanTable()
	}
	f.soa = cov != nil && !cfg.DisableSoAKernel && isSystematic(cfg.Resample)
	return f, nil
}

// isSystematic reports whether r is this package's Systematic function. Go
// cannot compare function values directly; the code-pointer comparison works
// for the top-level function, which is all the SoA kernel needs — any other
// resampler (Multinomial, test doubles) falls back to the scalar path.
func isSystematic(r ResampleFunc) bool {
	return r != nil &&
		reflect.ValueOf(r).Pointer() == reflect.ValueOf(ResampleFunc(Systematic)).Pointer()
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config, g *walkgraph.Graph, dep *rfid.Deployment) *Filter {
	f, err := New(cfg, g, dep)
	if err != nil {
		panic(err)
	}
	return f
}

// Config returns the filter's configuration.
func (f *Filter) Config() Config { return f.cfg }

// SetUnhealthy installs the set of readers whose silence must be ignored by
// the negative update (indexed by ReaderID; nil or all-false restores the
// uncompensated behavior). The caller must not mutate the slice afterwards
// and must not call this concurrently with Run/Advance.
func (f *Filter) SetUnhealthy(un []bool) {
	all := false
	for _, u := range un {
		if u {
			all = true
			break
		}
	}
	if !all {
		un = nil
	}
	f.unhealthy = un
}

// Unhealthy returns the installed unhealthy-reader set (nil when none).
func (f *Filter) Unhealthy() []bool { return f.unhealthy }

// SetParticleBudget caps the particle count of newly initialized states at n
// (degraded-mode operation under overload); n <= 0 or n >= Ns restores the
// configured count. Already-cached states are not resized.
func (f *Filter) SetParticleBudget(n int) {
	if n <= 0 || n >= f.cfg.Ns {
		n = 0
	}
	f.maxNs = n
}

// ParticleBudget returns the effective per-object particle count for new
// states: the configured Ns, or the degraded-mode cap when one is set.
func (f *Filter) ParticleBudget() int {
	if f.maxNs > 0 {
		return f.maxNs
	}
	return f.cfg.Ns
}

// Coverage returns the filter's coverage index (nil on the geometric path).
func (f *Filter) Coverage() *rfid.Coverage { return f.cov }

// InitAt creates a fresh particle set for an object uniformly distributed on
// the graph edges within the detection range of the given reader, each
// particle with a random direction and a Gaussian walking speed. The
// activation intervals come from the coverage index when available; the
// geometric path re-intersects the activation circle with every edge.
func (f *Filter) InitAt(src *rng.Source, obj model.ObjectID, reader model.ReaderID, t model.Time) *State {
	st := &State{Object: obj, Time: t, LastReadingTime: t}
	st.Particles = f.initParticles(src, reader, nil)
	return st
}

// initParticles samples a fresh particle set within the reader's activation
// range into dst, reusing its capacity when it suffices (the kidnapped-robot
// recovery inside advance passes the state's existing slice, keeping the
// steady-state loop allocation-free; InitAt passes nil).
func (f *Filter) initParticles(src *rng.Source, reader model.ReaderID, dst []Particle) []Particle {
	r := f.dep.Reader(reader)
	var ivs []rfid.InitInterval
	var total float64
	if f.cov != nil {
		ivs, total = f.cov.InitIntervals(reader)
	} else {
		ivs, total = rfid.ComputeInitIntervals(f.g, r)
	}

	ns := f.ParticleBudget()
	if cap(dst) >= ns {
		dst = dst[:ns]
	} else {
		dst = make([]Particle, ns)
	}
	w := 1.0 / float64(ns)
	for i := range dst {
		var loc walkgraph.Location
		if total > 0 {
			u := src.Uniform(0, total)
			// Find the interval containing u.
			j := sort.Search(len(ivs), func(k int) bool { return ivs[k].CumStart > u }) - 1
			iv := ivs[j]
			loc = walkgraph.Location{Edge: iv.Edge, Offset: iv.Lo + (u - iv.CumStart)}
		} else {
			// Degenerate deployment: the range covers no edge; collapse to
			// the nearest graph point.
			loc = f.g.NearestLocation(r.Pos)
		}
		e := f.g.Edge(loc.Edge)
		toward := e.A
		if src.Bool(0.5) {
			toward = e.B
		}
		dst[i] = Particle{
			Loc:    loc,
			Toward: toward,
			Speed:  src.TruncGaussian(f.cfg.SpeedMean, f.cfg.SpeedStd, f.cfg.MinSpeed, f.cfg.MaxSpeed),
			Weight: w,
		}
	}
	return dst
}

// Run executes the full Algorithm 2 for one object: entries must be the
// object's aggregated readings from the collector (oldest first, covering at
// most its two most recent detecting devices). The filter initializes at the
// first entry's device and advances to min(lastReading + MaxCoastSeconds,
// now). It returns an error when there are no readings to start from.
func errNoReadings(obj model.ObjectID) error {
	return fmt.Errorf("particle: no readings for object %d", obj)
}

func (f *Filter) Run(src *rng.Source, obj model.ObjectID, entries []model.AggregatedReading, now model.Time) (*State, error) {
	if len(entries) == 0 {
		return nil, errNoReadings(obj)
	}
	first := entries[0]
	st := f.InitAt(src, obj, first.Reader, first.Time)
	f.advance(src, st, entries[1:], now, false)
	return st, nil
}

// Advance resumes a cached state: it incorporates entries newer than the
// state's time stamp and steps the particles up to min(lastReading +
// MaxCoastSeconds, now). Entries at or before the state's time are skipped.
// This is the cache-hit path of the cache management module.
func (f *Filter) Advance(src *rng.Source, st *State, entries []model.AggregatedReading, now model.Time) {
	f.advance(src, st, entries, now, true)
}

// Settled reports whether Advance(st, entries, now) — and AdvancePool on
// either kernel — would leave st's particles, Time and LastReadingTime
// exactly as they are: no detected entry is newer than st.Time, so td stays
// st.LastReadingTime, and the step loop's bound min(td + MaxCoastSeconds,
// now) does not pass st.Time, so it runs zero iterations. The state's
// anchor distribution is then still current.
func (f *Filter) Settled(st *State, entries []model.AggregatedReading, now model.Time) bool {
	for _, e := range entries {
		if e.Time > st.Time && e.Detected() {
			return false
		}
	}
	tmin := st.LastReadingTime + model.Time(f.cfg.MaxCoastSeconds)
	if now < tmin {
		tmin = now
	}
	return tmin <= st.Time
}

// advance steps st second by second to min(td + coast, now), where td is the
// newest reading time, reweighting and resampling at every detected second.
// With skipStale set, entries at or before st.Time are ignored (the Advance
// contract); Run passes every entry through.
func (f *Filter) advance(src *rng.Source, st *State, entries []model.AggregatedReading, now model.Time, skipStale bool) {
	st.soaPool = nil // scalar path mutates Particles: drop any SoA residency
	if st.byTime == nil {
		st.byTime = make(map[model.Time]model.ReaderID, len(entries))
	} else {
		clear(st.byTime)
	}
	byTime := st.byTime
	td := st.LastReadingTime
	for _, e := range entries {
		if skipStale && e.Time <= st.Time {
			continue
		}
		if e.Detected() {
			byTime[e.Time] = e.Reader
			if e.Time > td {
				td = e.Time
			}
		}
	}
	tmin := td + model.Time(f.cfg.MaxCoastSeconds)
	if now < tmin {
		tmin = now
	}
	// Stage timing is gated on one bool so the uninstrumented loop pays no
	// clock reads; time.Now and the histogram sinks allocate nothing, which
	// keeps the instrumented loop inside the zero-allocation contract.
	timed := f.timed
	var rs RunStats
	var t0 time.Time
	if timed {
		rs.From = st.Time
	}
	for tj := st.Time + 1; tj <= tmin; tj++ {
		if timed {
			t0 = time.Now()
		}
		for i := range st.Particles {
			f.cfg.Step(src, f.g, &st.Particles[i], 1.0)
		}
		if timed {
			rs.Predict += time.Since(t0)
			rs.Steps++
		}
		reader, detected := byTime[tj]
		if !detected {
			// The paper's reading.Device = null case. With negative
			// information enabled, silence is itself an observation: the
			// object is (almost surely) not inside any reader's range.
			if f.cfg.UseNegativeInfo {
				if timed {
					t0 = time.Now()
				}
				f.negativeUpdate(src, st)
				if timed {
					rs.Reweight += time.Since(t0)
				}
			}
			continue
		}
		if timed {
			rs.Detections++
			t0 = time.Now()
		}
		consistent := f.reweight(st.Particles, reader)
		if timed {
			rs.Reweight += time.Since(t0)
		}
		if !consistent {
			// Degenerate observation: no particle is consistent with the
			// reading. Without intervention the filter would keep the wrong
			// cloud forever (all weights equally low), so recover by
			// reinitializing within the detecting reader's range — the
			// standard kidnapped-robot recovery. The existing slice is
			// reused, so recovery stays inside the loop's zero-allocation
			// contract.
			st.Particles = f.initParticles(src, reader, st.Particles)
			continue
		}
		NormalizeWeights(st.Particles)
		if timed {
			t0 = time.Now()
		}
		f.resample(src, st)
		f.roughen(src, st.Particles)
		if timed {
			rs.Resample += time.Since(t0)
			rs.Resamples++
		}
	}
	if tmin > st.Time {
		st.Time = tmin
	}
	st.LastReadingTime = td
	if timed {
		rs.To = st.Time
		rs.ESS = essOf(st.Particles)
		st.LastRun = rs
		if f.met.Predict != nil {
			f.met.Predict.Observe(rs.Predict.Seconds())
		}
		if f.met.Reweight != nil {
			f.met.Reweight.Observe(rs.Reweight.Seconds())
		}
		if f.met.Resample != nil {
			f.met.Resample.Observe(rs.Resample.Seconds())
		}
		if f.met.ParticleSteps != nil {
			f.met.ParticleSteps.Add(uint64(rs.Steps) * uint64(len(st.Particles)))
		}
	}
}

// essOf is EffectiveSampleSize for possibly unnormalized weights:
// (sum w)^2 / sum w^2.
func essOf(ps []Particle) float64 {
	var sum, sq float64
	for i := range ps {
		w := ps[i].Weight
		sum += w
		sq += w * w
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / sq
}

// resample replaces st.Particles with a resampled set and recycles the
// previous backing array as the next resample's output buffer, so the
// steady-state loop allocates nothing.
func (f *Filter) resample(src *rng.Source, st *State) {
	out := f.cfg.Resample(src, st.scratch[:0], st.Particles)
	st.scratch = st.Particles
	st.Particles = out
}

// negativeUpdate applies the negative observation "no reader saw the object
// this second". Unlike positive readings, silence is weak evidence — a
// particle can be a second or two ahead of the true object — so the update
// is a sequential importance step: weights of covered (non-room) particles
// are multiplied by NegativeWeight and the set is resampled only when the
// effective sample size degenerates below half the particle count. This
// preserves particle diversity across long silent stretches instead of
// collapsing the cloud into whichever hypothesis was briefly favored.
// Ranges of SUSPECT/DEAD readers (Filter.SetUnhealthy) are excluded: silence
// from a reader that may not be reporting carries no information, so the
// penalty there would push mass away from where the object plausibly is.
func (f *Filter) negativeUpdate(src *rng.Source, st *State) {
	ps := st.Particles
	inside := 0
	un := f.unhealthy
	if f.cov != nil {
		for i := range ps {
			loc := ps[i].Loc
			// Stairwells (link edges) and rooms are shielded from readers and
			// therefore always consistent with silence.
			if f.et.Kind[loc.Edge] == walkgraph.LinkEdge || f.et.InRoom(loc) {
				continue
			}
			// Mirror Graph.Point's offset clamping, then scan the edge's
			// coverage spans: inside an inner interval is covered for
			// certain, the guard fringe falls back to exact geometry.
			off := loc.Offset
			if off < 0 {
				off = 0
			} else if l := f.et.Length[loc.Edge]; off > l {
				off = l
			}
			spans := f.spans[loc.Edge]
			for si := range spans {
				s := &spans[si]
				if un != nil && un[s.Reader] {
					continue
				}
				if off < s.OuterLo || off > s.OuterHi {
					continue
				}
				if (off >= s.InnerLo && off <= s.InnerHi) ||
					f.dep.Reader(s.Reader).Covers(f.g.Point(loc)) {
					ps[i].Weight *= f.cfg.NegativeWeight
					inside++
					break
				}
			}
		}
	} else {
		for i := range ps {
			if f.g.Edge(ps[i].Loc.Edge).Kind == walkgraph.LinkEdge {
				continue
			}
			_, covered := f.dep.CoveringReaderExcept(f.g.Point(ps[i].Loc), un)
			if covered && f.g.RoomAt(ps[i].Loc) == floorplan.NoRoom {
				ps[i].Weight *= f.cfg.NegativeWeight
				inside++
			}
		}
	}
	if inside == 0 {
		return
	}
	NormalizeWeights(ps)
	if EffectiveSampleSize(ps) < float64(len(ps))/2 {
		f.resample(src, st)
		f.roughen(src, st.Particles)
	}
}

// roughen perturbs resampled particle speeds with small Gaussian noise so
// cloned particles diverge again instead of moving in lock-step.
func (f *Filter) roughen(src *rng.Source, ps []Particle) {
	if f.cfg.SpeedJitter <= 0 {
		return
	}
	for i := range ps {
		ps[i].Speed = src.TruncGaussian(ps[i].Speed, f.cfg.SpeedJitter, f.cfg.MinSpeed, f.cfg.MaxSpeed)
	}
}

// reweight applies the device sensing model: particles within the detecting
// reader's activation range are consistent with the observation and get
// HighWeight; the rest get LowWeight. It reports whether any particle was
// consistent with the observation.
func (f *Filter) reweight(ps []Particle, reader model.ReaderID) bool {
	any := false
	if f.cov != nil {
		r := f.dep.Reader(reader)
		for i := range ps {
			// A detection places the object in the reader's range outside
			// any room or stairwell: walls block reads, so those particles
			// are inconsistent.
			loc := ps[i].Loc
			ps[i].Weight = f.cfg.LowWeight
			if f.et.Kind[loc.Edge] == walkgraph.LinkEdge || f.et.InRoom(loc) {
				continue
			}
			off := loc.Offset
			if off < 0 {
				off = 0
			} else if l := f.et.Length[loc.Edge]; off > l {
				off = l
			}
			spans := f.spans[loc.Edge]
			for si := range spans {
				s := &spans[si]
				if s.Reader != reader {
					continue
				}
				if off >= s.OuterLo && off <= s.OuterHi &&
					((off >= s.InnerLo && off <= s.InnerHi) || r.Covers(f.g.Point(loc))) {
					ps[i].Weight = f.cfg.HighWeight
					any = true
				}
				break
			}
		}
		return any
	}
	r := f.dep.Reader(reader)
	for i := range ps {
		if r.Covers(f.g.Point(ps[i].Loc)) &&
			f.g.RoomAt(ps[i].Loc) == floorplan.NoRoom &&
			f.g.Edge(ps[i].Loc.Edge).Kind != walkgraph.LinkEdge {
			ps[i].Weight = f.cfg.HighWeight
			any = true
		} else {
			ps[i].Weight = f.cfg.LowWeight
		}
	}
	return any
}
