package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span around every call it makes into a layer,
// from this package's own decorators at the layers' public seams. All spans
// of one request share its ID, carried in-process by the context and across
// the loopback hop by reqHeader. Spans stay in memory until the run ends.

// reqHeader carries the request ID from the generator to the server side.
const reqHeader = "X-Perfbench-Req"

type reqKey struct{}

// reqOf returns the request ID attached to ctx (0: none).
func reqOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// span is one timed call. depth orders nesting: 0 the client round trip,
// 1 the server handler, 2 the engine call, 3 a stage inside it.
type span struct {
	req        uint64
	layer      string
	depth      int
	start, end time.Time
}

// Tracer collects spans and per-request facts.
type Tracer struct {
	next atomic.Uint64
	// ingesting is the request whose ingest is in flight, for seams that
	// get no context (the WAL filesystem). Ingest is never concurrent in
	// the lockstep load model, so at most one such request exists.
	ingesting atomic.Uint64

	mu    sync.Mutex
	spans []span
	kinds map[uint64]string
	// stageEnd is when each request's latest stage span (depth 3) ended.
	stageEnd map[uint64]time.Time
	// cands records the candidate count and known-object count of each
	// query the decorator ran through the piecewise pipeline.
	cands map[uint64][2]int
}

func newTracer() *Tracer {
	return &Tracer{kinds: map[uint64]string{}, cands: map[uint64][2]int{}, stageEnd: map[uint64]time.Time{}}
}

// record stores one span; spans of request 0 count only toward totals that
// are not per request.
func (t *Tracer) record(req uint64, layer string, depth int, start time.Time) {
	t.recordSpan(req, layer, depth, start, time.Now())
}

func (t *Tracer) recordSpan(req uint64, layer string, depth int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{req: req, layer: layer, depth: depth, start: start, end: end})
	if depth == 3 && req != 0 && end.After(t.stageEnd[req]) {
		t.stageEnd[req] = end
	}
	t.mu.Unlock()
}

// lastStageEnd returns when req's latest stage span ended (zero: none).
func (t *Tracer) lastStageEnd(req uint64) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stageEnd[req]
}

func (t *Tracer) noteCandidates(req uint64, cands, known int) {
	t.mu.Lock()
	t.cands[req] = [2]int{cands, known}
	t.mu.Unlock()
}

// clientHook opens a request: it assigns the ID and, when the response has
// been read, records the client round-trip span.
func (t *Tracer) clientHook(ctx context.Context, kind string) (context.Context, func()) {
	id := t.next.Add(1)
	t.mu.Lock()
	t.kinds[id] = kind
	t.mu.Unlock()
	start := time.Now()
	return context.WithValue(ctx, reqKey{}, id), func() { t.record(id, "client", 0, start) }
}

// serverMiddleware times the whole server-side handling of a request,
// from the mux to the last byte written, and puts the request ID into the
// request context for the decorators below it.
func (t *Tracer) serverMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
		t.record(id, "server", 1, start)
	})
}

// LedgerRow is one request kind's mean self time per layer.
type LedgerRow struct {
	Kind     string
	Requests int
	// Total is the mean client round trip; Self the mean self time per
	// layer. The self times sum to Total.
	Total float64
	Self  map[string]float64
}

// Ledger attributes every instant of each request's round trip to the
// deepest span active at that instant, split evenly when several are (the
// WAL writes shards in parallel). A layer's self time is what it was
// attributed; the layers of a request therefore sum to its round trip. The
// client layer's self time is the part no server layer explains: loopback
// transport, HTTP framing and the generator's own decoding.
func (t *Tracer) Ledger() []LedgerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := map[uint64][]span{}
	for _, s := range t.spans {
		if s.req != 0 {
			by[s.req] = append(by[s.req], s)
		}
	}
	rows := map[string]*LedgerRow{}
	for id, ss := range by {
		kind := t.kinds[id]
		var root *span
		for i := range ss {
			if ss[i].depth == 0 {
				root = &ss[i]
			}
		}
		if root == nil {
			continue
		}
		row := rows[kind]
		if row == nil {
			row = &LedgerRow{Kind: kind, Self: map[string]float64{}}
			rows[kind] = row
		}
		row.Requests++
		row.Total += ms(root.end.Sub(root.start))
		for layer, d := range selfTimes(ss, root) {
			row.Self[layer] += ms(d)
		}
	}
	var out []LedgerRow
	for _, r := range rows {
		for l := range r.Self {
			r.Self[l] /= float64(r.Requests)
		}
		r.Total /= float64(r.Requests)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// selfTimes runs the sweep for one request, clipped to its root span.
func selfTimes(ss []span, root *span) map[string]time.Duration {
	pts := []time.Time{root.start, root.end}
	for _, s := range ss {
		if s.start.After(root.start) && s.start.Before(root.end) {
			pts = append(pts, s.start)
		}
		if s.end.After(root.start) && s.end.Before(root.end) {
			pts = append(pts, s.end)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Before(pts[j]) })
	self := map[string]time.Duration{}
	var deepest []int
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if !b.After(a) {
			continue
		}
		deepest = deepest[:0]
		maxDepth := -1
		for j, s := range ss {
			if s.start.After(a) || s.end.Before(b) {
				continue
			}
			switch {
			case s.depth > maxDepth:
				maxDepth = s.depth
				deepest = append(deepest[:0], j)
			case s.depth == maxDepth:
				deepest = append(deepest, j)
			}
		}
		share := b.Sub(a) / time.Duration(len(deepest))
		for _, j := range deepest {
			self[ss[j].layer] += share
		}
	}
	return self
}

// durations returns the durations in ms of the spans of layer; with
// requestOnly, only of those attributed to a request.
func (t *Tracer) durations(requestOnly bool, layer string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.layer == layer && (s.req != 0 || !requestOnly) {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// Candidates returns the mean candidate count and mean candidates/known
// ratio over queries of kind.
func (t *Tracer) Candidates(kind string) (meanCands, keepRatio float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, c := range t.cands {
		if t.kinds[id] != kind || c[1] == 0 {
			continue
		}
		meanCands += float64(c[0])
		keepRatio += float64(c[0]) / float64(c[1])
		n++
	}
	if n > 0 {
		meanCands /= float64(n)
		keepRatio /= float64(n)
	}
	return meanCands, keepRatio, n
}

// reset drops everything recorded so far (after the warm-up).
func (t *Tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.kinds = map[uint64]string{}
	t.cands = map[uint64][2]int{}
	t.stageEnd = map[uint64]time.Time{}
	t.mu.Unlock()
}

// printLedger writes the per-kind table of layer self times.
func printLedger(f io.Writer, w Workload, rows []LedgerRow) {
	fmt.Fprintf(f, "== %s: ledger (mean self ms per request; layers sum to the round trip)\n", w.Name)
	for _, r := range rows {
		layers := make([]string, 0, len(r.Self))
		for l := range r.Self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(f, "  %s: n=%d round trip %.4f ms\n", r.Kind, r.Requests, r.Total)
		sum := 0.0
		for _, l := range layers {
			name := l
			if l == "client" {
				name = "unattributed (client+loopback)"
			}
			fmt.Fprintf(f, "    %-32s %10.4f ms %6.1f%%\n", name, r.Self[l], 100*r.Self[l]/r.Total)
			sum += r.Self[l]
		}
		fmt.Fprintf(f, "    %-32s %10.4f ms\n", "sum", sum)
	}
}
