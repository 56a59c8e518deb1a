// Command perfbench is the repository benchmark: it drives the real
// cmd/server over loopback HTTP with a pre-generated, seeded workload and
// prints end-to-end metrics (--trace 0) or the per-layer ledger of a traced
// in-process run (--trace 1). See README.md.
//
// Run it through run.sh from the repository root, which builds the server
// and this command first:
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// The exit code is non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

// Result is the final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// memoryLimit caps the benchmark process's heap growth. The pre-encoded
// gateway-durable schedule is the bulk of its memory, and the traced run
// adds an in-process engine; without a cap the collector lets the heap
// reach twice that.
const memoryLimit = 448 << 20

func run() int {
	debug.SetMemoryLimit(memoryLimit)
	var (
		workload = flag.String("workload", "", "workload name: dashboard, gateway-durable or cluster-fanout")
		seed     = flag.Int64("seed", 1, "workload seed: the stream, the query schedule and the ground truth")
		seconds  = flag.Int("seconds", 15, "nominal measuring time; sets the fixed amount of timed work")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics against server processes; 1: per-layer ledger of a traced run")
		server   = flag.String("server", "", "cmd/server binary under test")
		workdir  = flag.String("workdir", "", "scratch directory for logs and data directories")
	)
	flag.Parse()
	w, err := findWorkload(*workload)
	if err == nil && (*server == "" || *workdir == "") {
		err = fmt.Errorf("-server and -workdir are required (use run.sh)")
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	env := &Env{ServerBin: *server, Dir: dir}

	var res *Result
	var problems []string
	if *traced != 0 {
		res, problems, err = runTraced(env, w, *seed, *seconds)
	} else {
		res, problems, err = runEndToEnd(env, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.Correct = len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if kb, err := procStatusKB(os.Getpid(), "VmHWM"); err == nil {
		logf("generator peak RSS %.1f MiB", kb/1024)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// prepare generates the run's inputs before any timing. The garbage
// collector runs eagerly meanwhile, so the generator's peak memory stays
// near the pre-encoded schedule it keeps.
func prepare(w Workload, seed int64, seconds int) (*World, *Schedule, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	start := time.Now()
	world, err := newWorld()
	if err != nil {
		return nil, nil, err
	}
	sch, err := Generate(world, w, seed, w.StreamPerWallS*seconds)
	if err == nil {
		logf("generated %s seed %d: %d+%d stream seconds, %d readings, in %.3fs",
			w.Name, seed, len(sch.Warmup), len(sch.Timed), Readings(sch.Timed), time.Since(start).Seconds())
	}
	return world, sch, err
}

// runEndToEnd measures every end-to-end metric against real server
// processes, printing the table to stdout before the result line.
func runEndToEnd(env *Env, w Workload, seed int64, seconds int) (*Result, []string, error) {
	_, sch, err := prepare(w, seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	run, err := runHTTP(env, w, sch, 3, 5)
	if err != nil {
		return nil, nil, err
	}
	m, err := endToEndMetrics(w, run)
	if err != nil {
		return nil, nil, err
	}
	printTable(os.Stdout, w, "end-to-end", m)
	fmt.Printf("answer digest %s (%d timed stream seconds)\n", run.Timed.Digest, run.StreamSeconds)
	if err := checkDigestHistory(env, w, sch, run.Timed.Digest); err != nil {
		run.fail("%v", err)
	}
	problems := append(run.Timed.Problems, run.Problems...)
	return &Result{Attempted: run.Timed.Attempted, Failed: run.Timed.Failed, Metrics: m.m}, problems, nil
}

// endToEndMetrics derives the user-visible figures of one untraced run.
// Rates and p50s are medians over the timed phase's blocks.
func endToEndMetrics(w Workload, run *HTTPRun) (*Metrics, error) {
	m := newMetrics()
	o := run.Timed
	bl := run.Blocks
	m.Set("setup_s", "s", median(append([]float64(nil), run.Setups...)), len(run.Setups))
	m.Set("readings_per_s", "1/s", blockMedian(bl, func(b Block) float64 {
		return float64(b.Outcome.Acked) / b.Wall.Seconds()
	}), len(o.Lat[kindIngest]))
	m.Set("queries_per_s", "1/s", blockMedian(bl, func(b Block) float64 {
		return float64(b.Outcome.queries()) / b.Wall.Seconds()
	}), o.queries())
	for _, k := range []struct {
		kind string
		tail bool
	}{{kindIngest, true}, {kindRange, true}, {kindKNN, true}, {kindOccupancy, false}} {
		if err := m.latency(k.kind, k.kind, bl, k.tail); err != nil {
			return nil, err
		}
	}
	m.Set("ok_rate", "frac", float64(o.Attempted-o.Failed)/float64(o.Attempted), o.Attempted)
	if len(o.KL) == 0 || len(o.Hit) == 0 {
		return nil, fmt.Errorf("no answer-quality samples (%d range, %d kNN)", len(o.KL), len(o.Hit))
	}
	m.Set("range_kl", "nats", mean(o.KL), len(o.KL))
	m.Set("knn_hit", "frac", mean(o.Hit), len(o.Hit))
	m.Set("peak_rss_mb", "MiB", run.PeakRSSMB, w.Nodes)
	if len(run.Recoveries) == 0 {
		return nil, fmt.Errorf("no recovery measured")
	}
	m.Set("recovery_s", "s", median(append([]float64(nil), run.Recoveries...)), len(run.Recoveries))
	return m, nil
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// printTable writes every metric with its unit and sample count.
func printTable(f *os.File, w Workload, title string, m *Metrics) {
	fmt.Fprintf(f, "== %s: %s\n", w.Name, title)
	for _, n := range m.names {
		x, ok := m.m[n]
		note := ""
		if !ok {
			x, note = m.notes[n], " (table only)"
		}
		fmt.Fprintf(f, "  %-34s %14.6g %-6s n=%d%s\n", n, x.Value, x.Unit, x.Samples, note)
	}
}

// checkDigestHistory compares the timed answer digest with the one an
// earlier run of the same server binary, workload and inputs (the schedule
// fingerprint) recorded in the build directory: repeated runs must answer
// identically.
func checkDigestHistory(env *Env, w Workload, sch *Schedule, digest string) error {
	bin, err := fileDigest(env.ServerBin)
	if err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(env.Dir), "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fp := sch.Fingerprint()
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%x", bin[:16], w.Name, fp[:8]))
	prev, err := os.ReadFile(path)
	if err == nil {
		if p := strings.TrimSpace(string(prev)); p != digest {
			return fmt.Errorf("answer digest %s differs from an earlier run's %s (same binary, workload and inputs)", digest, p)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	return os.WriteFile(path, []byte(digest+"\n"), 0o644)
}
