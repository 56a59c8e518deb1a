package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walkgraph"
)

// Workload is one traffic mix against one server configuration. README.md
// records why each exists. Every workload ingests, queries and recovers, so
// each run reports every end-to-end metric.
type Workload struct {
	Name string
	// Objects is the simulated population; Nodes is 1 (single server) or 2
	// (a static cluster with all traffic sent to node-0).
	Objects int
	Nodes   int
	// Shards is the -shards flag of every node under test. Every node runs
	// with a -data-dir, and every run times recovery after a SIGKILL.
	Shards int
	// Every QueryEvery stream seconds a query round sends Range /range and
	// KNN /knn queries; OccupancyEvery sends one /occupancy every that many
	// stream seconds.
	QueryEvery, Range, KNN, OccupancyEvery int
	// StreamPerWallS sizes the timed phase: --seconds wall seconds of
	// measuring become StreamPerWallS × seconds stream seconds, a fixed
	// amount of work chosen so that every reported p90 has at least
	// minSamples(0.9) samples at --seconds 10 (the query workloads' ingest
	// p90 that many in each block).
	StreamPerWallS int
}

// warmupSeconds is the stream prefix ingested (and queried) before timing
// starts, so caches are full and lazy set-up has finished.
const warmupSeconds = 60

var workloads = []Workload{
	{Name: "dashboard", Objects: 500, Nodes: 1, Shards: 1,
		QueryEvery: 1, Range: 2, KNN: 2, OccupancyEvery: 10, StreamPerWallS: 50},
	{Name: "gateway-durable", Objects: 2000, Nodes: 1, Shards: 4,
		QueryEvery: 2, Range: 1, KNN: 1, OccupancyEvery: 20, StreamPerWallS: 60},
	{Name: "cluster-fanout", Objects: 500, Nodes: 2, Shards: 1,
		QueryEvery: 1, Range: 2, KNN: 2, OccupancyEvery: 10, StreamPerWallS: 50},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// World is the fixed environment every node is started with: the built-in
// office and cmd/server's default reader deployment.
type World struct {
	Plan *floorplan.Plan
	Dep  *rfid.Deployment
	G    *walkgraph.Graph
}

func newWorld() (*World, error) {
	plan := floorplan.DefaultOffice()
	dep, err := rfid.DeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	if err != nil {
		return nil, err
	}
	g, err := walkgraph.Build(plan)
	if err != nil {
		return nil, err
	}
	return &World{Plan: plan, Dep: dep, G: g}, nil
}

// Query kinds, also the request-kind labels of the ledger.
const (
	kindIngest    = "ingest"
	kindRange     = "range"
	kindKNN       = "knn"
	kindOccupancy = "occupancy"
)

// Query is one scheduled query with its ground truth, computed from the
// simulator's true positions at the query's stream second.
type Query struct {
	Kind string
	// Path is the request URI (path and query string).
	Path string
	Win  geom.Rect
	Pt   geom.Point
	K    int
	// Truth is the ground-truth answer: the objects inside the window
	// (range) or the true k nearest by network distance (kNN).
	Truth []model.ObjectID
}

// Second is one stream second: its ingest batch, pre-encoded as the body a
// reader gateway would POST, and the queries sent after it is acknowledged.
type Second struct {
	T        model.Time
	Body     []byte
	Readings int
	Queries  []Query
}

// Schedule is every input of one run, generated before any timing starts.
type Schedule struct {
	Warmup []Second
	Timed  []Second
}

// Readings counts the raw readings in secs.
func Readings(secs []Second) int {
	n := 0
	for _, s := range secs {
		n += s.Readings
	}
	return n
}

// Generate builds the schedule of workload w for seed: the internal/sim
// stream (warm-up plus timed stream seconds), the query schedule and its
// ground truth. The same seed gives byte-identical inputs.
func Generate(world *World, w Workload, seed int64, timedSeconds int) (*Schedule, error) {
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = w.Objects
	s, err := sim.New(world.G, rfid.NewSensor(world.Dep), tc, seed)
	if err != nil {
		return nil, err
	}
	qsrc := rng.Derive(seed, 0x9e3779b9)
	bounds := world.Plan.Bounds()
	area := world.Plan.TotalArea()
	step := func() (Second, error) {
		t, raws := s.Step()
		b := model.Batch{Time: t, Readings: raws}
		if b.Readings == nil {
			b.Readings = []model.RawReading{}
		}
		body, err := json.Marshal(b)
		if err != nil {
			return Second{}, err
		}
		sec := Second{T: t, Body: body, Readings: len(raws)}
		round := int(t)%w.QueryEvery == 0
		for i := 0; round && i < w.Range; i++ {
			win := randomWindow(qsrc, bounds, area)
			v := url.Values{}
			v.Set("x", ftoa(win.Min.X))
			v.Set("y", ftoa(win.Min.Y))
			v.Set("w", ftoa(win.Width()))
			v.Set("h", ftoa(win.Height()))
			sec.Queries = append(sec.Queries, Query{Kind: kindRange, Path: "/range?" + v.Encode(),
				Win: win, Truth: s.TrueRange(win)})
		}
		for i := 0; round && i < w.KNN; i++ {
			pt := geom.Pt(qsrc.Uniform(bounds.Min.X, bounds.Max.X), qsrc.Uniform(bounds.Min.Y, bounds.Max.Y))
			k := 2 + qsrc.Intn(8)
			v := url.Values{}
			v.Set("x", ftoa(pt.X))
			v.Set("y", ftoa(pt.Y))
			v.Set("k", strconv.Itoa(k))
			sec.Queries = append(sec.Queries, Query{Kind: kindKNN, Path: "/knn?" + v.Encode(),
				Pt: pt, K: k, Truth: s.TrueKNN(pt, k)})
		}
		if int(t)%w.OccupancyEvery == 0 {
			sec.Queries = append(sec.Queries, Query{Kind: kindOccupancy, Path: "/occupancy"})
		}
		return sec, nil
	}
	sch := &Schedule{}
	for i := 0; i < warmupSeconds+timedSeconds; i++ {
		sec, err := step()
		if err != nil {
			return nil, err
		}
		if i < warmupSeconds {
			sch.Warmup = append(sch.Warmup, sec)
		} else {
			sch.Timed = append(sch.Timed, sec)
		}
	}
	return sch, nil
}

// randomWindow draws a query window covering 1–5% of the floor area (the
// paper's Fig. 9 range) with aspect ratio in [0.5, 2], placed uniformly
// inside the plan bounds.
func randomWindow(src *rng.Source, bounds geom.Rect, floorArea float64) geom.Rect {
	a := floorArea * src.Uniform(1, 5) / 100
	aspect := src.Uniform(0.5, 2.0)
	w := math.Min(math.Sqrt(a*aspect), bounds.Width())
	h := math.Min(a/w, bounds.Height())
	x := src.Uniform(bounds.Min.X, bounds.Max.X-w)
	y := src.Uniform(bounds.Min.Y, bounds.Max.Y-h)
	return geom.RectWH(x, y, w, h)
}

// ftoa formats coordinates exactly as they are parsed back, so the server
// sees the same float64 the ground truth was computed for.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Fingerprint hashes every input of the schedule: bodies, query URIs and
// ground truth. Equal fingerprints mean byte-identical inputs.
func (sch *Schedule) Fingerprint() [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, part := range [][]Second{sch.Warmup, sch.Timed} {
		put(uint64(len(part)))
		for _, s := range part {
			put(uint64(s.T))
			put(uint64(len(s.Body)))
			h.Write(s.Body)
			for _, q := range s.Queries {
				h.Write([]byte(q.Path))
				put(uint64(len(q.Truth)))
				for _, o := range q.Truth {
					put(uint64(o))
				}
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// bodyBytes is the total ingest payload of secs.
func bodyBytes(secs []Second) int {
	n := 0
	for _, s := range secs {
		n += len(s.Body)
	}
	return n
}
