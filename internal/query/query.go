// Package query implements the paper's query evaluation module: indoor range
// queries (Algorithm 3) and indoor kNN queries (Algorithm 4) over the
// APtoObjHT anchor-point index, plus the query aware optimization module's
// candidate pruning for both query types.
package query

import (
	"context"
	"math"
	"sort"

	"repro/internal/anchor"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/rfid"
	"repro/internal/walkgraph"
)

// Evaluator answers range and kNN queries against an anchor-point table.
type Evaluator struct {
	g   *walkgraph.Graph
	idx *anchor.Index
}

// NewEvaluator builds an Evaluator over a walking graph and its anchor
// index.
func NewEvaluator(g *walkgraph.Graph, idx *anchor.Index) *Evaluator {
	return &Evaluator{g: g, idx: idx}
}

// Range evaluates an indoor range query (the paper's Algorithm 3). Anchor
// points are the 1-D projection of the 2-D indoor space, so the lost
// dimension is compensated per intersected cell: hallway probabilities are
// scaled by the fraction of the hallway width the query covers, and room
// probabilities by the fraction of the room area it covers.
func (e *Evaluator) Range(tab *anchor.Table, q geom.Rect) model.ResultSet {
	rs, _ := e.rangeCtx(nil, tab, q)
	return rs
}

// RangeContext is Range with a per-request deadline: the context is checked
// at every hallway- and room-cell boundary, and on expiry the result
// accumulated so far is returned together with a *DeadlineError. A nil error
// means the result is complete.
func (e *Evaluator) RangeContext(ctx context.Context, tab *anchor.Table, q geom.Rect) (model.ResultSet, error) {
	return e.rangeCtx(ctx, tab, q)
}

// rangeCtx is the shared implementation; a nil ctx skips every check and is
// byte-for-byte the pre-deadline behavior.
func (e *Evaluator) rangeCtx(ctx context.Context, tab *anchor.Table, q geom.Rect) (model.ResultSet, error) {
	resultSet := make(model.ResultSet)
	plan := e.g.Plan()

	// Hallway cells.
	for _, h := range plan.Hallways() {
		if err := expired(ctx, "range/hallways"); err != nil {
			return resultSet, err
		}
		strip := h.Strip()
		overlap := strip.Intersect(q)
		if overlap.Empty() {
			continue
		}
		var ratio, lo, hi float64
		if h.Horizontal() {
			ratio = overlap.Height() / h.Width
			lo, hi = overlap.Min.X, overlap.Max.X
		} else {
			ratio = overlap.Width() / h.Width
			lo, hi = overlap.Min.Y, overlap.Max.Y
		}
		result := make(model.ResultSet)
		for _, a := range e.idx.Anchors() {
			if a.Hallway != h.ID {
				continue
			}
			coord := a.Pos.X
			if !h.Horizontal() {
				coord = a.Pos.Y
			}
			if coord >= lo && coord <= hi {
				result.Add(tab.Get(a.ID))
			}
		}
		result.Scale(ratio)
		resultSet.Add(result)
	}

	// Room cells: the covered fraction of the room's footprint (which may be
	// a composite of several rectangles).
	for _, room := range plan.Rooms() {
		if err := expired(ctx, "range/rooms"); err != nil {
			return resultSet, err
		}
		covered := room.IntersectArea(q)
		if covered <= 0 {
			continue
		}
		ap := e.idx.RoomAnchor(room.ID)
		if ap == anchor.NoAnchor {
			continue
		}
		result := tab.Get(ap).Clone()
		result.Scale(covered / room.Area())
		resultSet.Add(result)
	}
	return resultSet, nil
}

// KNN evaluates an indoor kNN query (the paper's Algorithm 4): starting from
// the query point (approximated onto the nearest walking-graph edge), anchor
// points are visited in ascending shortest network distance, accumulating
// each anchor's indexed objects, until the total probability of the result
// set reaches k. The result holds at least k objects (probability mass k)
// whenever the table contains that much mass.
func (e *Evaluator) KNN(tab *anchor.Table, q geom.Point, k int) model.ResultSet {
	rs, _ := e.knnCtx(nil, tab, q, k)
	return rs
}

// KNNContext is KNN with a per-request deadline, checked every
// deadlineStride anchors of the distance-ordered scan. On expiry the mass
// accumulated so far (possibly < k) is returned with a *DeadlineError.
func (e *Evaluator) KNNContext(ctx context.Context, tab *anchor.Table, q geom.Point, k int) (model.ResultSet, error) {
	return e.knnCtx(ctx, tab, q, k)
}

func (e *Evaluator) knnCtx(ctx context.Context, tab *anchor.Table, q geom.Point, k int) (model.ResultSet, error) {
	resultSet := make(model.ResultSet)
	if k <= 0 {
		return resultSet, nil
	}
	loc := e.g.NearestLocation(q)
	ids, _ := e.idx.AnchorsByNetworkDistance(loc)
	for i, ap := range ids {
		if i%deadlineStride == 0 {
			if err := expired(ctx, "knn/anchor-scan"); err != nil {
				return resultSet, err
			}
		}
		entry := tab.Get(ap)
		if len(entry) == 0 {
			continue
		}
		resultSet.Add(entry)
		if resultSet.TotalProb() >= float64(k) {
			break
		}
	}
	return resultSet, nil
}

// TopKObjects ranks a probabilistic result set by descending probability and
// returns the k most likely objects (ties to lower IDs). It converts the
// paper's probabilistic kNN answer into a concrete set for hit-rate style
// metrics.
func TopKObjects(rs model.ResultSet, k int) []model.ObjectID {
	type op struct {
		o model.ObjectID
		p float64
	}
	all := make([]op, 0, len(rs))
	for o, p := range rs {
		all = append(all, op{o: o, p: p})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p != all[j].p {
			return all[i].p > all[j].p
		}
		return all[i].o < all[j].o
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]model.ObjectID, k)
	for i := range out {
		out[i] = all[i].o
	}
	return out
}

// ObjectInfo is the pruning-relevant summary of an object: its most recent
// detecting device and when it was last read.
type ObjectInfo struct {
	Object   model.ObjectID
	Reader   model.ReaderID
	LastSeen model.Time
}

// Pruner implements the query aware optimization module: it filters out
// non-candidate objects that cannot appear in any registered query's result.
type Pruner struct {
	g   *walkgraph.Graph
	idx *anchor.Index
	dep *rfid.Deployment
	// umax is the maximum walking speed used to grow uncertain regions.
	umax float64
	// unhealthy flags readers whose last detection may be stale beyond its
	// timestamp (the device went SUSPECT/DEAD after reading the object), so
	// their uncertain regions are widened to keep pruning sound. nil when all
	// readers are healthy.
	unhealthy []bool
}

// NewPruner builds a Pruner.
func NewPruner(g *walkgraph.Graph, idx *anchor.Index, dep *rfid.Deployment, umax float64) *Pruner {
	return &Pruner{g: g, idx: idx, dep: dep, umax: umax}
}

// SetUnhealthy installs the unhealthy-reader set (indexed by ReaderID; nil or
// all-false restores the uncompensated regions). The caller must not mutate
// the slice afterwards or call this concurrently with candidate generation.
func (p *Pruner) SetUnhealthy(un []bool) {
	any := false
	for _, u := range un {
		if u {
			any = true
			break
		}
	}
	if !any {
		un = nil
	}
	p.unhealthy = un
}

// UncertainRegion returns the Euclidean uncertain region UR(o): a circle
// centered at the object's last detecting device with radius
// umax * (now - lastSeen) + device range.
//
// When the last detecting device is unhealthy the radius gains one extra
// device range: the object may have left the range unnoticed any time after
// the last read (the usual exit event that re-anchors UR never arrived), so
// the region is grown by the largest silent head start the dead range can
// hide. Time-based growth already covers travel after that instant.
func (p *Pruner) UncertainRegion(info ObjectInfo, now model.Time) geom.Circle {
	r := p.dep.Reader(info.Reader)
	lmax := p.umax * float64(now-info.LastSeen)
	if lmax < 0 {
		lmax = 0
	}
	rad := lmax + r.Range
	if p.unhealthy != nil && int(info.Reader) < len(p.unhealthy) && p.unhealthy[info.Reader] {
		rad += r.Range
	}
	return geom.Circle{C: r.Pos, R: rad}
}

// RangeCandidates returns the objects whose uncertain regions overlap at
// least one of the query windows; all others are non-candidates whose
// filtering cost is saved.
func (p *Pruner) RangeCandidates(infos []ObjectInfo, windows []geom.Rect, now model.Time) []model.ObjectID {
	out, _ := p.rangeCandidatesCtx(nil, infos, windows, now)
	return out
}

// RangeCandidatesContext is RangeCandidates with a per-request deadline,
// checked once per object. On expiry it fails conservatively: the remaining
// unexamined objects are all admitted as candidates (pruning is an
// optimization; an incomplete prune must never drop a possible answer), and
// the *DeadlineError is returned so the caller can account for the overrun.
func (p *Pruner) RangeCandidatesContext(ctx context.Context, infos []ObjectInfo, windows []geom.Rect, now model.Time) ([]model.ObjectID, error) {
	return p.rangeCandidatesCtx(ctx, infos, windows, now)
}

func (p *Pruner) rangeCandidatesCtx(ctx context.Context, infos []ObjectInfo, windows []geom.Rect, now model.Time) ([]model.ObjectID, error) {
	var out []model.ObjectID
	for n, info := range infos {
		if err := expired(ctx, "prune/range"); err != nil {
			for _, rest := range infos[n:] {
				out = append(out, rest.Object)
			}
			return out, err
		}
		ur := p.UncertainRegion(info, now)
		for _, w := range windows {
			if ur.OverlapsRect(w) {
				out = append(out, info.Object)
				break
			}
		}
	}
	return out, nil
}

// KNNCandidates implements the paper's distance-based pruning: with
// s_i (l_i) the minimum (maximum) shortest network distance from the query
// point to UR(o_i), and f the k-th smallest l_i, every object with s_i > f
// is pruned — at least k objects are certainly closer.
func (p *Pruner) KNNCandidates(infos []ObjectInfo, q geom.Point, k int, now model.Time) []model.ObjectID {
	out, _ := p.knnCandidatesCtx(nil, infos, q, k, now)
	return out
}

// KNNCandidatesContext is KNNCandidates with a per-request deadline, checked
// once per object during bound computation. On expiry every object is
// admitted (the distance threshold cannot be established from partial
// bounds, and pruning must stay sound) and the *DeadlineError is returned.
func (p *Pruner) KNNCandidatesContext(ctx context.Context, infos []ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	return p.knnCandidatesCtx(ctx, infos, q, k, now)
}

func (p *Pruner) knnCandidatesCtx(ctx context.Context, infos []ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	if len(infos) == 0 {
		return nil, nil
	}
	b := p.newKNNBounder(q, now)
	type bounds struct {
		obj    model.ObjectID
		si, li float64
	}
	bs := make([]bounds, 0, len(infos))
	ls := make([]float64, 0, len(infos))
	for _, info := range infos {
		if err := expired(ctx, "prune/knn"); err != nil {
			out := make([]model.ObjectID, len(infos))
			for i := range infos {
				out[i] = infos[i].Object
			}
			return out, err
		}
		si, li := b.bounds(info)
		bs = append(bs, bounds{obj: info.Object, si: si, li: li})
		ls = append(ls, li)
	}
	sort.Float64s(ls)
	idx := k - 1
	if idx >= len(ls) {
		idx = len(ls) - 1
	}
	f := ls[idx]
	var out []model.ObjectID
	for _, b := range bs {
		if b.si <= f {
			out = append(out, b.obj)
		}
	}
	return out, nil
}

// knnBounder computes the [s_i, l_i] network-distance bounds of one kNN
// query's uncertain regions, sharing work across objects. Each anchor's
// distance from the query point is computed at most once per query. The
// bounds themselves are memoized per region key: UR(o) depends only on the
// last detecting reader, the last-seen time and that reader's health, and
// within one query the time and the unhealthy set are fixed, so objects with
// equal (reader, last-seen) have the same region and the same bounds.
type knnBounder struct {
	p        *Pruner
	now      model.Time
	loc      walkgraph.Location
	nodeDist []float64
	// anchorDist[i] is anchor i's network distance from loc; NaN until
	// first needed.
	anchorDist []float64
	regions    map[regionKey][2]float64
}

type regionKey struct {
	reader   model.ReaderID
	lastSeen model.Time
}

func (p *Pruner) newKNNBounder(q geom.Point, now model.Time) *knnBounder {
	loc := p.g.NearestLocation(q)
	ad := make([]float64, len(p.idx.Anchors()))
	for i := range ad {
		ad[i] = math.NaN()
	}
	return &knnBounder{
		p: p, now: now, loc: loc,
		nodeDist:   p.g.DistancesFromLocation(loc),
		anchorDist: ad,
		regions:    make(map[regionKey][2]float64),
	}
}

// bounds returns s_i and l_i, the minimum and maximum network distance from
// the query point to the anchors inside UR(info).
func (b *knnBounder) bounds(info ObjectInfo) (si, li float64) {
	key := regionKey{reader: info.Reader, lastSeen: info.LastSeen}
	if r, ok := b.regions[key]; ok {
		return r[0], r[1]
	}
	p := b.p
	ur := p.UncertainRegion(info, b.now)
	si, li = math.Inf(1), 0.0
	for i, a := range p.idx.Anchors() {
		if !ur.Contains(a.Pos) {
			continue
		}
		d := b.anchorDist[i]
		if math.IsNaN(d) {
			d = p.g.DistToLocation(b.loc, b.nodeDist, a.Loc)
			b.anchorDist[i] = d
		}
		if d < si {
			si = d
		}
		if d > li {
			li = d
		}
	}
	if math.IsInf(si, 1) {
		// The region is too small to contain an anchor; bound through
		// the device center instead.
		reader := p.dep.Reader(info.Reader)
		center := p.g.NearestLocation(reader.Pos)
		d := p.g.DistToLocation(b.loc, b.nodeDist, center)
		si = math.Max(0, d-ur.R)
		li = d + ur.R
	}
	b.regions[key] = [2]float64{si, li}
	return si, li
}

// RoomOf exposes the plan lookup used by ground-truth helpers: the room
// containing pt, or floorplan.NoRoom.
func (e *Evaluator) RoomOf(pt geom.Point) floorplan.RoomID {
	return e.g.Plan().RoomAt(pt)
}
