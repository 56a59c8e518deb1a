package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/anchor"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wal"
)

// Decorators that time the calls crossing each layer's public seam. They
// change no answer: the digest of a traced run must equal the untraced
// run's, which checks exactly that.

// localEngine is what engine.Open and engine.OpenSharded return: the
// server-facing surface plus the piecewise query pipeline.
type localEngine interface {
	server.Engine
	cluster.Local
}

// selfSync reports whether e locks internally (the server and the cluster
// node then skip their own serialization mutex); decorators must keep
// answering it the way the engine they wrap does.
func selfSync(e any) bool {
	ss, ok := e.(interface{ SelfSynchronizing() bool })
	return ok && ss.SelfSynchronizing()
}

// tracedEngine wraps a single node's engine as the server sees it. Ingest
// and occupancy are timed whole; range and kNN run through the public
// piecewise pipeline — ObjectInfos → Prune*Context → PreprocessContext →
// Evaluator() — the same one cluster.Node drives, with each stage timed.
type tracedEngine struct {
	localEngine
	tr *Tracer
}

func (e *tracedEngine) SelfSynchronizing() bool { return selfSync(e.localEngine) }

func (e *tracedEngine) IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error {
	id := reqOf(ctx)
	e.tr.ingesting.Store(id)
	defer e.tr.ingesting.Store(0)
	defer e.tr.record(id, "engine.ingest", 2, time.Now())
	return e.localEngine.IngestContext(ctx, t, raws)
}

func (e *tracedEngine) OccupancyContext(ctx context.Context) ([]engine.RoomOdds, error) {
	defer e.tr.record(reqOf(ctx), "engine.occupancy", 2, time.Now())
	return e.localEngine.OccupancyContext(ctx)
}

// pipeline runs one snapshot query stage by stage. prune and eval are the
// kind-specific stages; the first stage error (a deadline overrun) wins,
// as in the engines' own Context queries.
func (e *tracedEngine) pipeline(ctx context.Context,
	prune func(infos []query.ObjectInfo, now model.Time) ([]model.ObjectID, error),
	eval func(tab *anchor.Table) (model.ResultSet, error)) (model.ResultSet, error) {
	id := reqOf(ctx)
	defer e.tr.record(id, "engine.query", 2, time.Now())
	now := e.Now()
	start := time.Now()
	infos := e.ObjectInfos()
	e.tr.record(id, "engine.gather", 3, start)
	start = time.Now()
	cands, perr := prune(infos, now)
	e.tr.record(id, "query.prune", 3, start)
	e.tr.noteCandidates(id, len(cands), len(infos))
	start = time.Now()
	tab, terr := e.PreprocessContext(ctx, cands)
	e.tr.record(id, "engine.preprocess", 3, start)
	start = time.Now()
	rs, eerr := eval(tab)
	e.tr.record(id, "query.eval", 3, start)
	for _, err := range []error{perr, terr, eerr} {
		if err != nil {
			return rs, err
		}
	}
	// A sharded engine reports quarantined shards alongside a complete
	// answer; keep that contract.
	if ds := e.DegradedShards(); len(ds) > 0 {
		return rs, &engine.QuarantineError{Shards: ds}
	}
	return rs, nil
}

func (e *tracedEngine) RangeQueryContext(ctx context.Context, win geom.Rect) (model.ResultSet, error) {
	return e.pipeline(ctx,
		func(infos []query.ObjectInfo, now model.Time) ([]model.ObjectID, error) {
			return e.PruneRangeContext(ctx, infos, []geom.Rect{win}, now)
		},
		func(tab *anchor.Table) (model.ResultSet, error) { return e.Evaluator().RangeContext(ctx, tab, win) })
}

func (e *tracedEngine) KNNQueryContext(ctx context.Context, q geom.Point, k int) (model.ResultSet, error) {
	return e.pipeline(ctx,
		func(infos []query.ObjectInfo, now model.Time) ([]model.ObjectID, error) {
			return e.PruneKNNContext(ctx, infos, q, k, now)
		},
		func(tab *anchor.Table) (model.ResultSet, error) { return e.Evaluator().KNNContext(ctx, tab, q, k) })
}

// tracedNode wraps a cluster node as the server sees it: the coordinator's
// whole ingest and query calls are timed (depth 2); the stages inside come
// from tracedLocal and timingTransport. Embedding the node keeps its
// optional cluster surface, so the server still mounts /cluster/rpc. Peer
// RPCs carry no request ID: the work a peer does for a request shows up as
// that request's cluster.forward time.
type tracedNode struct {
	*cluster.Node
	tr *Tracer
}

func (n *tracedNode) IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error {
	defer n.tr.record(reqOf(ctx), "cluster.ingest", 2, time.Now())
	return n.Node.IngestContext(ctx, t, raws)
}

func (n *tracedNode) RangeQueryContext(ctx context.Context, win geom.Rect) (model.ResultSet, error) {
	defer n.timeEval(ctx, time.Now())
	return n.Node.RangeQueryContext(ctx, win)
}

func (n *tracedNode) KNNQueryContext(ctx context.Context, q geom.Point, k int) (model.ResultSet, error) {
	defer n.timeEval(ctx, time.Now())
	return n.Node.KNNQueryContext(ctx, q, k)
}

// timeEval records a range or kNN query's cluster.query span and its
// query.eval stage. The coordinator calls the evaluator itself, right after
// the scatter (its last stage span: a local preprocess or a peer forward),
// so the stage is the time from the end of that span to the answer.
func (n *tracedNode) timeEval(ctx context.Context, start time.Time) {
	end := time.Now()
	id := reqOf(ctx)
	n.tr.recordSpan(id, "cluster.query", 2, start, end)
	if s := n.tr.lastStageEnd(id); id != 0 && s.After(start) {
		n.tr.recordSpan(id, "query.eval", 3, s, end)
	}
}

func (n *tracedNode) OccupancyContext(ctx context.Context) ([]engine.RoomOdds, error) {
	defer n.tr.record(reqOf(ctx), "cluster.query", 2, time.Now())
	return n.Node.OccupancyContext(ctx)
}

// tracedLocal wraps the engine inside a cluster node (cluster.Local). Only
// calls that carry a request context are attributed; ObjectInfos has none,
// so the coordinator's gather counts toward cluster.query.
type tracedLocal struct {
	localEngine
	tr *Tracer
}

func (l *tracedLocal) SelfSynchronizing() bool { return selfSync(l.localEngine) }

func (l *tracedLocal) IngestContext(ctx context.Context, t model.Time, raws []model.RawReading) error {
	// Only the coordinator's own ingest carries the request; a peer's runs
	// inside the coordinator's forward, which already accounts for it.
	if id := reqOf(ctx); id != 0 {
		l.tr.ingesting.Store(id)
		defer l.tr.ingesting.Store(0)
	}
	defer l.tr.record(reqOf(ctx), "engine.ingest", 3, time.Now())
	return l.localEngine.IngestContext(ctx, t, raws)
}

func (l *tracedLocal) ObjectInfos() []query.ObjectInfo {
	defer l.tr.record(0, "engine.gather", 3, time.Now())
	return l.localEngine.ObjectInfos()
}

func (l *tracedLocal) PruneRangeContext(ctx context.Context, infos []query.ObjectInfo, windows []geom.Rect, now model.Time) ([]model.ObjectID, error) {
	defer l.tr.record(reqOf(ctx), "query.prune", 3, time.Now())
	cands, err := l.localEngine.PruneRangeContext(ctx, infos, windows, now)
	l.tr.noteCandidates(reqOf(ctx), len(cands), len(infos))
	return cands, err
}

func (l *tracedLocal) PruneKNNContext(ctx context.Context, infos []query.ObjectInfo, q geom.Point, k int, now model.Time) ([]model.ObjectID, error) {
	defer l.tr.record(reqOf(ctx), "query.prune", 3, time.Now())
	cands, err := l.localEngine.PruneKNNContext(ctx, infos, q, k, now)
	l.tr.noteCandidates(reqOf(ctx), len(cands), len(infos))
	return cands, err
}

func (l *tracedLocal) PreprocessContext(ctx context.Context, cands []model.ObjectID) (*anchor.Table, error) {
	defer l.tr.record(reqOf(ctx), "engine.preprocess", 3, time.Now())
	return l.localEngine.PreprocessContext(ctx, cands)
}

// timingTransport times every peer RPC a node sends.
type timingTransport struct {
	inner  cluster.Transport
	tr     *Tracer
	errors atomic.Int64
}

func (t *timingTransport) Send(ctx context.Context, addr string, req *cluster.Request) (*cluster.Response, error) {
	defer t.tr.record(reqOf(ctx), "cluster.forward", 3, time.Now())
	resp, err := t.inner.Send(ctx, addr, req)
	if err != nil {
		t.errors.Add(1)
	}
	return resp, err
}

// timingFS times every WAL and snapshot write and fsync. Segment files
// (*.wal) give wal.write and wal.fsync spans, snapshot files (snap-*)
// wal.snapshot spans. The filesystem gets no context, so spans go to the
// ingest request in flight (0 when none: a background snapshot).
type timingFS struct {
	wal.FS
	tr    *Tracer
	bytes atomic.Int64 // bytes written to segment files
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	kind := "wal.other"
	switch {
	case strings.HasSuffix(base, ".wal"):
		kind = "wal.segment"
	case strings.HasPrefix(base, "snap-"):
		kind = "wal.snapshot"
	}
	return &timingFile{File: file, fs: f, kind: kind}, nil
}

type timingFile struct {
	wal.File
	fs   *timingFS
	kind string
}

func (f *timingFile) layer(op string) string {
	if f.kind == "wal.segment" {
		return "wal." + op
	}
	return f.kind
}

func (f *timingFile) Write(p []byte) (int, error) {
	defer f.fs.tr.record(f.fs.tr.ingesting.Load(), f.layer("write"), 3, time.Now())
	if f.kind == "wal.segment" {
		f.fs.bytes.Add(int64(len(p)))
	}
	return f.File.Write(p)
}

func (f *timingFile) Sync() error {
	defer f.fs.tr.record(f.fs.tr.ingesting.Load(), f.layer("fsync"), 3, time.Now())
	return f.File.Sync()
}

// compile-time checks that the decorators still satisfy the seams.
var (
	_ server.Engine     = (*tracedEngine)(nil)
	_ server.Engine     = (*tracedNode)(nil)
	_ cluster.Local     = (*tracedLocal)(nil)
	_ cluster.Transport = (*timingTransport)(nil)
	_ wal.FS            = (*timingFS)(nil)
)
