package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/wal"
)

// The traced run assembles the workload's configuration in this process
// from the packages cmd/server uses, with the same settings its flags give
// (see deployment.args), and puts the timing decorators at the seams.

// inProcNode is one in-process server under test.
type inProcNode struct {
	eng  localEngine
	http *http.Server
	base string
}

type inProcDeployment struct {
	nodes []*inProcNode
	fs    *timingFS
	tt    []*timingTransport
	cfgs  []engine.Config
}

// engineConfig mirrors cmd/server's flag defaults for the workload.
func engineConfig(w Workload, dataDir string, fsys wal.FS) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.KeepHistory = true
	cfg.Seed = 1
	cfg.SlowQueryThreshold = 100 * time.Millisecond
	cfg.Durability = engine.DurabilityConfig{
		Dir:           dataDir,
		Fsync:         wal.SyncAlways,
		FsyncInterval: time.Second,
		SnapshotEvery: 300,
		FS:            fsys,
	}
	if w.Shards > 1 {
		cfg.Shards = w.Shards
	}
	return cfg
}

func openEngine(world *World, cfg engine.Config) (localEngine, error) {
	if cfg.Shards > 1 {
		return engine.OpenSharded(world.Plan, world.Dep, cfg)
	}
	return engine.Open(world.Plan, world.Dep, cfg)
}

// serverConfig mirrors cmd/server's admission and tracing flag defaults.
func serverConfig() server.Config {
	return server.Config{
		Admission:      server.DefaultAdmissionConfig(),
		MaxIngestBytes: server.DefaultMaxIngestBytes,
		Trace:          trace.Config{Sample: 0.01, Slow: 100 * time.Millisecond, Seed: 1},
	}
}

func startInProc(env *Env, world *World, w Workload, tr *Tracer) (*inProcDeployment, error) {
	d := &inProcDeployment{}
	var lns []net.Listener
	var addrs []string
	for i := 0; i < w.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	// node-0 is the first member, as in deployment.
	sort.Slice(lns, func(i, j int) bool { return lns[i].Addr().String() < lns[j].Addr().String() })
	for _, ln := range lns {
		addrs = append(addrs, ln.Addr().String())
	}
	d.fs = &timingFS{FS: wal.OS, tr: tr}
	for i := 0; i < w.Nodes; i++ {
		cfg := engineConfig(w, filepath.Join(env.Dir, fmt.Sprintf("traced-data%d", i)), d.fs)
		d.cfgs = append(d.cfgs, cfg)
		eng, err := openEngine(world, cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		var sys server.Engine = &tracedEngine{localEngine: eng, tr: tr}
		if w.Nodes > 1 {
			tt := &timingTransport{inner: cluster.NewHTTPTransport(), tr: tr}
			d.tt = append(d.tt, tt)
			node, err := cluster.New(&tracedLocal{localEngine: eng, tr: tr}, cluster.Config{
				Self: addrs[i], Peers: addrs, Transport: tt, Seed: 1,
				EvaluateSlots: server.DefaultAdmissionConfig().MaxInFlight,
			})
			if err != nil {
				eng.Close()
				d.close()
				return nil, err
			}
			sys = &tracedNode{Node: node, tr: tr}
		}
		srv := server.NewWith(sys, world.Plan, world.Dep, serverConfig())
		hs := &http.Server{Handler: tr.serverMiddleware(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
		n := &inProcNode{eng: eng, http: hs, base: "http://" + addrs[i]}
		d.nodes = append(d.nodes, n)
		go hs.Serve(lns[i])
	}
	return d, nil
}

// close stops every listener and waits for the handlers, then closes the
// engines without the final snapshot a graceful shutdown would write
// (the traced run's data directory is discarded).
func (d *inProcDeployment) close() {
	for _, n := range d.nodes {
		n.http.Close()
	}
	for _, n := range d.nodes {
		n.eng.Close()
	}
}

func (d *inProcDeployment) bases() []string {
	var out []string
	for _, n := range d.nodes {
		out = append(out, n.base)
	}
	return out
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TracedRun is the result of the in-process traced run.
type TracedRun struct {
	Tracer   *Tracer
	Warm     *Outcome
	Timed    *Outcome
	Wall     time.Duration
	Metrics  Scrape
	Stats    []statsDoc
	AllocMB  float64
	ReplayS  float64
	CacheEnt float64
	Forward  int64 // peer RPC errors
	WALBytes int64 // bytes written to WAL segments in the timed phase
}

func runTracedInProc(env *Env, world *World, w Workload, sch *Schedule) (*TracedRun, error) {
	tr := newTracer()
	d, err := startInProc(env, world, w, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	c := newClient()
	defer c.CloseIdleConnections()
	ctx := context.Background()
	run := &TracedRun{Tracer: tr}
	wres, _ := drive(ctx, c, d.nodes[0].base, sch.Warmup, tr.clientHook)
	run.Warm = Check(wres)
	tr.reset()
	before, err := scrapeAll(c, d.bases())
	if err != nil {
		return nil, err
	}
	a0 := heapAllocBytes()
	wb0 := d.fs.bytes.Load()
	start := time.Now()
	res, _ := drive(ctx, c, d.nodes[0].base, sch.Timed, tr.clientHook)
	run.Wall = time.Since(start)
	run.AllocMB = float64(heapAllocBytes()-a0) / (1 << 20)
	run.WALBytes = d.fs.bytes.Load() - wb0
	logf("traced timed phase: %d stream seconds in %.3fs", len(sch.Timed), run.Wall.Seconds())
	run.Timed = Check(res)
	after, err := scrapeAll(c, d.bases())
	if err != nil {
		return nil, err
	}
	run.Metrics = Delta(before, after)
	run.CacheEnt = after.Sum("repro_cache_entries")
	if run.Stats, err = statsAll(c, d.bases()); err != nil {
		return nil, err
	}
	for _, tt := range d.tt {
		run.Forward += tt.errors.Load()
	}
	// Replay: copy node-0's data directory as a crash would leave it (the
	// engine idle but never closed), then time opening an engine on the
	// copy.
	for _, n := range d.nodes {
		n.http.Close()
	}
	cfg := d.cfgs[0]
	crashed := cfg.Durability.Dir + "-crashed"
	if err := copyDir(crashed, cfg.Durability.Dir); err != nil {
		return nil, fmt.Errorf("copy data directory: %w", err)
	}
	cfg.Durability.Dir = crashed
	cfg.Durability.FS = nil
	rstart := time.Now()
	eng, err := openEngine(world, cfg)
	if err != nil {
		return nil, fmt.Errorf("reopen for replay: %w", err)
	}
	run.ReplayS = time.Since(rstart).Seconds()
	if rec := eng.Recovery(); rec.RecordsReplayed == 0 && !rec.SnapshotRestored {
		eng.Close()
		return nil, fmt.Errorf("reopen recovered nothing from %s", crashed)
	}
	return run, eng.Close()
}

// runTraced is the --trace 1 mode: one untraced run against server
// processes (the baseline for the digest and the tracing overhead), then
// the traced in-process run on the same inputs.
func runTraced(env *Env, w Workload, seed int64, seconds int) (*Result, []string, error) {
	world, sch, err := prepare(w, seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	base, err := runHTTP(env, w, sch, 1, 1)
	if err != nil {
		return nil, nil, err
	}
	tr, err := runTracedInProc(env, world, w, sch)
	if err != nil {
		return nil, nil, err
	}
	problems := append(append([]string(nil), base.Timed.Problems...), base.Problems...)
	for _, p := range tr.Warm.Problems {
		problems = append(problems, "traced warm-up: "+p)
	}
	for _, p := range tr.Timed.Problems {
		problems = append(problems, "traced: "+p)
	}
	if tr.Warm.Digest != base.WarmupDigests[0] {
		problems = append(problems, fmt.Sprintf("traced warm-up digest %s differs from the untraced %s", tr.Warm.Digest, base.WarmupDigests[0]))
	}
	if tr.Timed.Digest != base.Timed.Digest {
		problems = append(problems, fmt.Sprintf("traced answer digest %s differs from the untraced %s", tr.Timed.Digest, base.Timed.Digest))
	}
	for i, st := range tr.Stats {
		if st.Work.ReadingsDropped != 0 || st.IngestRejected != 0 {
			problems = append(problems, fmt.Sprintf("traced node %d: /stats reports %d readings dropped, %d batches rejected",
				i, st.Work.ReadingsDropped, st.IngestRejected))
		}
	}
	if dt := tr.Metrics.Sum("repro_degraded_transitions_total"); dt != 0 {
		problems = append(problems, fmt.Sprintf("traced run: repro_degraded_transitions_total grew by %v", dt))
	}
	rows := tr.Tracer.Ledger()
	m := layerMetrics(w, sch, base, tr, rows)
	printLedger(os.Stdout, w, rows)
	printTable(os.Stdout, w, "per-layer", m)
	fmt.Printf("answer digest %s untraced, %s traced\n", base.Timed.Digest, tr.Timed.Digest)
	return &Result{
		Attempted: base.Timed.Attempted + tr.Timed.Attempted,
		Failed:    base.Timed.Failed + tr.Timed.Failed,
		Metrics:   m.m,
	}, problems, nil
}

// p50p90 reports the nearest-rank p50 and, when the sample rule allows,
// p90 of xs; a missing percentile reads 0 and the sample count says why.
func p50p90(xs []float64) (p50, p90 float64) {
	if v, err := Percentile(append([]float64(nil), xs...), 0.5); err == nil {
		p50 = v
	}
	if v, err := Percentile(append([]float64(nil), xs...), tailQ); err == nil {
		p90 = v
	}
	return p50, p90
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer figures. Every workload ingests,
// queries and writes a WAL, so those layers are reported on each; the
// result line carries one fixed set of metrics. Figures that only one
// workload can give (peer RPC latency) or that only restate a correctness
// check (sheds, drops, RPC errors) are noted in the table alone.
func layerMetrics(w Workload, sch *Schedule, base *HTTPRun, tr *TracedRun, ledger []LedgerRow) *Metrics {
	t := tr.Tracer
	m := newMetrics()
	streamS := float64(len(sch.Timed))
	nIngest := len(tr.Timed.Lat[kindIngest])
	nQueries := tr.Timed.queries()
	readings := float64(Readings(sch.Timed))
	mx := tr.Metrics
	rows := map[string]LedgerRow{}
	for _, r := range ledger {
		rows[r.Kind] = r
	}
	selfOf := func(layer string, kinds ...string) float64 {
		sum, n := 0.0, 0
		for _, k := range kinds {
			r := rows[k]
			sum += r.Self[layer] * float64(r.Requests)
			n += r.Requests
		}
		return ratio(sum, float64(n))
	}

	// server
	m.Set("server.ingest_self_ms", "ms", selfOf("server", kindIngest), nIngest)
	m.Set("server.query_self_ms", "ms", selfOf("server", kindRange, kindKNN), rows[kindRange].Requests+rows[kindKNN].Requests)
	m.Set("server.req_bytes_per_reading", "B", ratio(float64(bodyBytes(sch.Timed)), readings), int(readings))
	respQ := tr.Timed.RespBytes[kindRange] + tr.Timed.RespBytes[kindKNN] + tr.Timed.RespBytes[kindOccupancy]
	m.Set("server.resp_bytes_per_query", "B", ratio(float64(respQ), float64(nQueries)), nQueries)
	m.Note("server.shed", "count", mx.Sum("repro_admission_shed_total"), nQueries)

	// engine
	ingestLayer := "engine.ingest"
	if w.Nodes > 1 {
		ingestLayer = "cluster.ingest"
	}
	ing := t.durations(true, ingestLayer)
	m.Set("engine.ingest_ms", "ms", mean(ing), len(ing))
	gather := t.durations(false, "engine.gather")
	m.Set("engine.gather_ms", "ms", mean(gather), len(gather))
	pre := t.durations(true, "engine.preprocess")
	m.Set("engine.preprocess_ms", "ms", mean(pre), len(pre))
	// One shard is its own max and mean; only a sharded engine labels its
	// series by shard.
	skew, skewN := 1.0, 1
	if w.Shards > 1 {
		skew, skewN = shardSkew(mx, "repro_shard_evaluate_seconds_sum")
	}
	m.Set("engine.shard_skew", "ratio", skew, skewN)

	// collector and ingest
	m.Set("collector.step_ms", "ms", 1000*mx.Sum("repro_shard_step_seconds_sum")/streamS, int(streamS))
	m.Set("collector.events_per_s", "1/s", mx.Sum("repro_ingest_readings_ingested_total")/tr.Wall.Seconds(), int(streamS))
	m.Note("ingest.dropped", "count", mx.Sum("repro_ingest_readings_dropped_total"), int(readings))

	// wal
	wr, fs := t.durations(false, "wal.write"), t.durations(false, "wal.fsync")
	wr50, wr90 := p50p90(wr)
	fs50, fs90 := p50p90(fs)
	m.Set("wal.write_p50_ms", "ms", wr50, len(wr))
	m.Set("wal.write_p90_ms", "ms", wr90, len(wr))
	m.Set("wal.fsync_p50_ms", "ms", fs50, len(fs))
	m.Set("wal.fsync_p90_ms", "ms", fs90, len(fs))
	snaps := mx.Sum("repro_wal_snapshots_written_total")
	snapTotal := 0.0
	for _, d := range t.durations(false, "wal.snapshot") {
		snapTotal += d
	}
	m.Set("wal.snapshot_ms", "ms", ratio(snapTotal, snaps), int(snaps))
	m.Set("wal.fsyncs_per_batch", "count", ratio(float64(len(fs)), float64(nIngest)), nIngest)
	m.Set("wal.bytes_per_reading", "B", ratio(float64(tr.WALBytes), readings), int(readings))
	m.Set("wal.snapshots", "count", snaps, int(streamS))
	m.Set("wal.replay_s", "s", tr.ReplayS, 1)

	// query, cache, particle, anchor
	prune := t.durations(true, "query.prune")
	m.Set("query.prune_ms", "ms", mean(prune), len(prune))
	eval := t.durations(true, "query.eval")
	m.Set("query.eval_ms", "ms", mean(eval), len(eval))
	rc, rkeep, rn := t.Candidates(kindRange)
	kc, kkeep, kn := t.Candidates(kindKNN)
	m.Set("query.range_candidates", "count", rc, rn)
	m.Set("query.knn_candidates", "count", kc, kn)
	m.Set("query.prune_keep_ratio", "frac", ratio(rkeep*float64(rn)+kkeep*float64(kn), float64(rn+kn)), rn+kn)

	hits, misses := mx.Sum("repro_cache_events_total", `event="hit"`), mx.Sum("repro_cache_events_total", `event="miss"`)
	m.Set("cache.hit_ratio", "frac", ratio(hits, hits+misses), int(hits+misses))
	m.Set("cache.entries", "count", tr.CacheEnt, w.Nodes)

	full := mx.Sum("repro_filter_runs_total", `mode="full"`)
	resumed := mx.Sum("repro_filter_runs_total", `mode="resumed"`)
	runs := full + resumed
	m.Set("particle.runs_full_per_query", "count", ratio(full, float64(nQueries)), nQueries)
	m.Set("particle.runs_resumed_per_query", "count", ratio(resumed, float64(nQueries)), nQueries)
	m.Set("particle.steps_per_query", "count", ratio(mx.Sum("repro_filter_particle_steps_total"), float64(nQueries)), nQueries)
	for _, st := range []string{"predict", "reweight", "resample"} {
		m.Set("particle."+st+"_us_per_run", "us",
			ratio(1e6*mx.Sum("repro_filter_stage_seconds_sum", `stage="`+st+`"`), runs), int(runs))
	}
	m.Set("anchor.snap_us_per_run", "us", ratio(1e6*mx.Sum("repro_filter_stage_seconds_sum", `stage="snap"`), runs), int(runs))

	// cluster: peer RPCs (none on one node)
	m.Set("cluster.forwards_per_stream_s", "count", float64(len(t.durations(false, "cluster.forward")))/streamS, int(streamS))
	if w.Nodes > 1 {
		fwd := t.durations(true, "cluster.forward")
		f50, f90 := p50p90(fwd)
		m.Note("cluster.forward_p50_ms", "ms", f50, len(fwd))
		m.Note("cluster.forward_p90_ms", "ms", f90, len(fwd))
		m.Note("cluster.forward_errors", "count", float64(tr.Forward), len(fwd))
	}

	// process
	m.Set("proc.cpu_s_per_stream_s", "s", base.CPUSeconds/float64(base.StreamSeconds), base.StreamSeconds)
	// The untraced run's process is the generator alone, so its allocation
	// is the generator's share of the traced process's.
	m.Set("proc.alloc_mb_per_stream_s", "MiB", (tr.AllocMB-base.GenAllocMB)/streamS, int(streamS))
	m.Note("proc.gen_alloc_mb_per_stream_s", "MiB", base.GenAllocMB/streamS, int(streamS))

	// tracing overhead: the same fixed work, traced against untraced.
	m.Set("trace.overhead_frac", "frac", tr.Wall.Seconds()/base.Wall.Seconds()-1, 2)

	// ledger: the share of each request kind's round trip no layer explains.
	for _, kind := range []string{kindIngest, kindRange, kindKNN, kindOccupancy} {
		r := rows[kind]
		m.Set("ledger.unattributed_frac."+kind, "frac", ratio(r.Self["client"], r.Total), r.Requests)
	}
	return m
}

// shardSkew is max/mean over the per-shard series of a histogram sum.
func shardSkew(mx Scrape, name string) (float64, int) {
	var vs []float64
	mx.Each(name, func(labels string, v float64) {
		if strings.Contains(labels, "shard=") {
			vs = append(vs, v)
		}
	})
	total, maxV := 0.0, 0.0
	for _, v := range vs {
		total += v
		if v > maxV {
			maxV = v
		}
	}
	if total == 0 {
		return 0, 0
	}
	return maxV / (total / float64(len(vs))), len(vs)
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
