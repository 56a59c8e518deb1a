package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/floorplan"
	"repro/internal/obs/trace"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// shardedTestServer builds a server over a four-shard engine with tracing at
// sample rate 1, streams 60 seconds of simulated traffic through POST
// /ingest, and touches both query endpoints so every per-shard series has
// observations.
func shardedTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := engine.DefaultConfig()
	cfg.Shards = 4
	sys := engine.MustNewSharded(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 120
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 99)
	srv := NewWith(sys, plan, dep, Config{Trace: trace.Config{Sample: 1, Seed: 4}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	client := ts.Client()
	for i := 0; i < 60; i++ {
		tm, raws := world.Step()
		body, err := json.Marshal(ingestRequest{Time: tm, Readings: raws})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	var ignore any
	if code := getJSON(t, ts, "/range?x=1&y=2&w=140&h=32", &ignore); code != http.StatusOK {
		t.Fatalf("range status %d", code)
	}
	if code := getJSON(t, ts, "/knn?x=35&y=12&k=5", &ignore); code != http.StatusOK {
		t.Fatalf("knn status %d", code)
	}
	return ts
}

// TestShardedMetricsLabeledSeries checks the per-shard labeled families and
// the runtime families through the strict exposition lint: every shard must
// have step-time and queue-depth samples, the reorder-lag histogram is
// router-scoped (no shard label), and the Go runtime block is present and
// plausible.
func TestShardedMetricsLabeledSeries(t *testing.T) {
	ts := shardedTestServer(t)
	fams := scrape(t, ts, ts.URL)

	for shard := 0; shard < 4; shard++ {
		lbl := map[string]string{"shard": strconv.Itoa(shard)}
		if v := sampleValue(fams, "repro_shard_step_seconds", "repro_shard_step_seconds_count", lbl); v <= 0 {
			t.Errorf("shard %d: step histogram count = %v, want > 0", shard, v)
		}
		if v := sampleValue(fams, "repro_shard_queue_depth", "repro_shard_queue_depth", lbl); v < 0 {
			t.Errorf("shard %d: queue-depth gauge missing", shard)
		}
	}
	// Evaluate fills only for shards that held query candidates; with 120
	// objects a whole-floor range query covers all of them.
	var evalCount float64
	for shard := 0; shard < 4; shard++ {
		lbl := map[string]string{"shard": strconv.Itoa(shard)}
		if v := sampleValue(fams, "repro_shard_evaluate_seconds", "repro_shard_evaluate_seconds_count", lbl); v > 0 {
			evalCount += v
		}
	}
	if evalCount == 0 {
		t.Error("no shard recorded an evaluate histogram observation")
	}
	if v := sampleValue(fams, "repro_ingest_reorder_lag_seconds", "repro_ingest_reorder_lag_seconds_count", nil); v <= 0 {
		t.Errorf("reorder-lag histogram count = %v, want > 0", v)
	}
	for _, s := range fams["repro_ingest_reorder_lag_seconds"].Samples {
		if _, ok := s.Labels["shard"]; ok {
			t.Error("reorder lag is router-scoped and must not carry a shard label")
		}
	}

	// Runtime block, collected lazily at scrape time.
	if v := sampleValue(fams, "repro_go_goroutines", "repro_go_goroutines", nil); v <= 0 {
		t.Errorf("repro_go_goroutines = %v, want > 0", v)
	}
	if v := sampleValue(fams, "repro_go_heap_inuse_bytes", "repro_go_heap_inuse_bytes", nil); v <= 0 {
		t.Errorf("repro_go_heap_inuse_bytes = %v, want > 0", v)
	}
	if fams["repro_go_gc_pause_seconds"] == nil {
		t.Error("repro_go_gc_pause_seconds family missing")
	}
	if v := sampleValue(fams, "repro_build_info", "repro_build_info", nil); v != 1 {
		t.Errorf("repro_build_info = %v, want 1", v)
	}
	if f := fams["repro_build_info"]; f != nil {
		if len(f.Samples) != 1 || f.Samples[0].Labels["goversion"] == "" {
			t.Errorf("repro_build_info labels = %v, want a goversion label", f.Samples)
		}
	}
}

// TestTracesEndpoint exercises GET /debug/traces over the sharded server:
// the JSON document must hold a kNN trace whose spans cover admission and
// encode at the router plus one evaluate span per shard, and ?format=chrome
// must render the same ring as a valid trace-event document.
func TestTracesEndpoint(t *testing.T) {
	ts := shardedTestServer(t)

	var doc struct {
		Capacity int          `json:"capacity"`
		Total    int          `json:"total"`
		Sample   float64      `json:"sample"`
		Traces   []trace.Done `json:"traces"`
	}
	if code := getJSON(t, ts, "/debug/traces", &doc); code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	if doc.Capacity <= 0 || doc.Total == 0 || doc.Sample != 1 {
		t.Fatalf("trace ring stats: capacity=%d total=%d sample=%v", doc.Capacity, doc.Total, doc.Sample)
	}
	var knn *trace.Done
	for i := range doc.Traces {
		if doc.Traces[i].Kind == "knn" {
			knn = &doc.Traces[i]
		}
	}
	if knn == nil {
		t.Fatalf("no knn trace in ring of %d traces", len(doc.Traces))
	}
	if len(knn.TraceID) != 16 {
		t.Errorf("knn traceId = %q, want 16 hex digits", knn.TraceID)
	}
	byName := map[string]map[int]bool{}
	for _, sp := range knn.Spans {
		if byName[sp.Name] == nil {
			byName[sp.Name] = map[int]bool{}
		}
		byName[sp.Name][sp.Shard] = true
	}
	for _, name := range []string{"admission", "gather", "merge", "encode"} {
		if !byName[name][trace.RouterShard] {
			t.Errorf("knn trace: no router %s span (got %v)", name, byName[name])
		}
	}
	for shard := 0; shard < 4; shard++ {
		if !byName["evaluate"][shard] {
			t.Errorf("knn trace: evaluate span missing for shard %d (got %v)", shard, byName["evaluate"])
		}
	}

	// Chrome export of the same ring.
	resp, err := ts.Client().Get(ts.URL + "/debug/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome format status %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome format does not decode: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome format: empty traceEvents")
	}
	wantFrag := fmt.Sprintf("knn %s", knn.TraceID)
	var found bool
	for _, ev := range chrome.TraceEvents {
		if args, ok := ev["args"].(map[string]any); ok && args["name"] == wantFrag {
			found = true
		}
	}
	if !found {
		t.Errorf("chrome format: no process_name metadata for %q", wantFrag)
	}
}

// TestTracesDisabled pins the 404 contract when tracing is turned off with a
// negative sample rate.
func TestTracesDisabled(t *testing.T) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	sys := engine.MustNewSharded(plan, dep, engine.DefaultConfig())
	srv := NewWith(sys, plan, dep, Config{Trace: trace.Config{Sample: -1}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var ignore any
	if code := getJSON(t, ts, "/debug/traces", &ignore); code != http.StatusNotFound {
		t.Fatalf("/debug/traces with tracing disabled: status %d, want 404", code)
	}
}
