package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Env is where a run keeps its binaries and scratch state, all inside the
// checkout.
type Env struct {
	ServerBin string
	// Dir is this run's private scratch directory (server logs, data
	// directories); removed when the run ends.
	Dir string
}

// deployment is the set of server processes under test for one workload.
type deployment struct {
	env    *Env
	w      Workload
	addrs  []string
	nodes  []*serverProc
	starts int
}

func newDeployment(env *Env, w Workload) (*deployment, error) {
	d := &deployment{env: env, w: w}
	return d, d.pickAddrs()
}

// dataDir is node i's -data-dir.
func (d *deployment) dataDir(i int) string {
	return filepath.Join(d.env.Dir, fmt.Sprintf("data%d", i))
}

// pickAddrs reserves a loopback port per node. Ownership follows a node's
// index in the sorted member list, so node-0 (which takes all traffic) is
// always the first member: every run partitions the objects the same way.
func (d *deployment) pickAddrs() error {
	d.addrs = d.addrs[:0]
	for i := 0; i < d.w.Nodes; i++ {
		a, err := freeAddr()
		if err != nil {
			return err
		}
		d.addrs = append(d.addrs, a)
	}
	sort.Strings(d.addrs)
	return nil
}

// args are node i's production flags: only the engine shape, the data
// directory and the cluster membership are set; admission, tracing, fsync
// (always) and snapshot cadence stay at cmd/server's defaults.
func (d *deployment) args(i int) []string {
	a := []string{"-shards", fmt.Sprint(d.w.Shards), "-data-dir", d.dataDir(i)}
	if d.w.Nodes > 1 {
		a = append(a, "-node-id", d.addrs[i], "-peers", strings.Join(d.addrs, ","))
	}
	return a
}

func (d *deployment) base() string { return d.nodes[0].base }

func (d *deployment) fork(i int) (*serverProc, error) {
	d.starts++
	return startServer(d.env.ServerBin, d.addrs[i], d.args(i),
		filepath.Join(d.env.Dir, fmt.Sprintf("node%d-%d.log", i, d.starts)))
}

// start launches every node from an empty state and returns the time from
// the first fork to the last /readyz 200. A port reserved by pickAddrs can
// be taken by another process before the server binds it; a node that
// exits before it is ready is therefore retried on fresh ports.
func (d *deployment) start(c *http.Client) (time.Duration, error) {
	for attempt := 1; ; attempt++ {
		ready, err := d.startOnce(c)
		if err == nil {
			return ready, nil
		}
		d.stop()
		if attempt == 3 || !errors.Is(err, errExited) {
			return 0, err
		}
		logf("retrying set-up on fresh ports: %v", err)
		if err := d.pickAddrs(); err != nil {
			return 0, err
		}
	}
}

func (d *deployment) startOnce(c *http.Client) (time.Duration, error) {
	for i := range d.addrs {
		if err := os.RemoveAll(d.dataDir(i)); err != nil {
			return 0, err
		}
	}
	d.nodes = nil
	begin := time.Now()
	for i := range d.addrs {
		p, err := d.fork(i)
		if err != nil {
			return 0, err
		}
		d.nodes = append(d.nodes, p)
	}
	for _, p := range d.nodes {
		if err := p.waitReady(c, 60*time.Second); err != nil {
			return 0, err
		}
	}
	return time.Since(begin), nil
}

func (d *deployment) stop() {
	for _, p := range d.nodes {
		p.kill()
	}
	d.nodes = nil
}

func (d *deployment) bases() []string {
	var out []string
	for _, p := range d.nodes {
		out = append(out, p.base)
	}
	return out
}

// scrapeAll fetches /metrics from every node and folds them into one.
func scrapeAll(c *http.Client, bases []string) (Scrape, error) {
	all := Scrape{}
	for _, base := range bases {
		b, err := getBody(c, base+"/metrics")
		if err != nil {
			return nil, err
		}
		s, err := ParseScrape(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", base, err)
		}
		all.Add(s)
	}
	return all, nil
}

// statsDoc is the part of /stats the correctness gate reads.
type statsDoc struct {
	Work struct {
		ReadingsIngested int
		ReadingsDropped  int
	} `json:"work"`
	IngestRejected int `json:"ingestRejected"`
}

func statsAll(c *http.Client, bases []string) ([]statsDoc, error) {
	var out []statsDoc
	for _, base := range bases {
		b, err := getBody(c, base+"/stats")
		if err != nil {
			return nil, err
		}
		var s statsDoc
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s/stats: %w", base, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func (d *deployment) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range d.nodes {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func (d *deployment) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range d.nodes {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// HTTPRun is the result of one untraced run against real server processes.
type HTTPRun struct {
	Setups        []float64 // seconds, one per set-up
	WarmupDigests []string
	Timed         *Outcome
	Wall          time.Duration
	Blocks        []Block
	StreamSeconds int
	CPUSeconds    float64
	GenAllocMB    float64 // the generator's own heap allocation
	PeakRSSMB     float64
	Recoveries    []float64
	Metrics       Scrape // /metrics delta over the timed phase
	Problems      []string
}

func (r *HTTPRun) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runHTTP is the untraced run: setups fresh deployments (each timed from
// fork to /readyz plus the warm-up), keeps the last for the timed phase,
// then times and checks recoveries SIGKILL-and-restart cycles of node-0.
func runHTTP(env *Env, w Workload, sch *Schedule, setups, recoveries int) (*HTTPRun, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	d, err := newDeployment(env, w)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	run := &HTTPRun{StreamSeconds: len(sch.Timed)}
	ctx := context.Background()
	warmAcked := 0
	for i := 0; i < setups; i++ {
		if i > 0 {
			d.stop()
		}
		ready, err := d.start(c)
		if err != nil {
			return nil, err
		}
		wstart := time.Now()
		wres, _ := drive(ctx, c, d.base(), sch.Warmup, nil)
		warm := time.Since(wstart)
		run.Setups = append(run.Setups, (ready + warm).Seconds())
		logf("set-up %d: ready %.3fs, warm-up %.3fs", i+1, ready.Seconds(), warm.Seconds())
		wo := Check(wres)
		for _, p := range wo.Problems {
			run.fail("warm-up: %s", p)
		}
		run.WarmupDigests = append(run.WarmupDigests, wo.Digest)
		if wo.Digest != run.WarmupDigests[0] {
			run.fail("warm-up answer digest differs between set-ups: %s vs %s", wo.Digest, run.WarmupDigests[0])
		}
		warmAcked = wo.Acked
	}

	before, err := scrapeAll(c, d.bases())
	if err != nil {
		return nil, err
	}
	stBefore, err := statsAll(c, d.bases())
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	a0 := heapAllocBytes()
	start := time.Now()
	res, walls := drive(ctx, c, d.base(), sch.Timed, nil)
	run.Wall = time.Since(start)
	run.Blocks = splitBlocks(res, walls, timedBlocks)
	run.GenAllocMB = float64(heapAllocBytes()-a0) / (1 << 20)
	logf("timed phase: %d stream seconds in %.3fs", len(sch.Timed), run.Wall.Seconds())
	for i, b := range run.Blocks {
		logf("  block %d: %.3fs", i, b.Wall.Seconds())
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	run.CPUSeconds = cpu1 - cpu0
	logf("server CPU %.2fs over the timed phase", run.CPUSeconds)
	if run.PeakRSSMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	run.Timed = Check(res)
	after, err := scrapeAll(c, d.bases())
	if err != nil {
		return nil, err
	}
	run.Metrics = Delta(before, after)
	stAfter, err := statsAll(c, d.bases())
	if err != nil {
		return nil, err
	}
	for i := range stAfter {
		if dd := stAfter[i].Work.ReadingsDropped - stBefore[i].Work.ReadingsDropped; dd != 0 {
			run.fail("node %d: /stats ReadingsDropped grew by %d", i, dd)
		}
		if dr := stAfter[i].IngestRejected - stBefore[i].IngestRejected; dr != 0 {
			run.fail("node %d: /stats ingestRejected grew by %d", i, dr)
		}
	}
	if dt := run.Metrics.Sum("repro_degraded_transitions_total"); dt != 0 {
		run.fail("repro_degraded_transitions_total grew by %v", dt)
	}

	if w.Nodes > 1 {
		if err := compareNodes(c, d, sch, res); err != nil {
			run.fail("%v", err)
		}
	}
	ingested := 0
	for _, st := range stAfter {
		ingested += st.Work.ReadingsIngested
	}
	if acked := warmAcked + run.Timed.Acked; ingested != acked {
		run.fail("/stats ReadingsIngested summed over nodes = %d, readings acknowledged = %d", ingested, acked)
	}
	for i := 0; i < recoveries; i++ {
		rec, err := recoverNode0(c, d, stAfter[0].Work.ReadingsIngested)
		if err != nil {
			run.fail("recovery: %v", err)
			break
		}
		run.Recoveries = append(run.Recoveries, rec.Seconds())
		logf("recovery %d: %.3fs", i+1, rec.Seconds())
	}
	return run, nil
}

// compareNodes re-sends the last timed second's queries to node-1 and
// requires its answers to equal node-0's byte for byte: the stream is
// stopped, so both nodes coordinate the same global state.
func compareNodes(c *http.Client, d *deployment, sch *Schedule, res []opResult) error {
	last := sch.Timed[len(sch.Timed)-1]
	tail := res[len(res)-len(last.Queries):]
	for i, q := range last.Queries {
		code, body, err := do(context.Background(), c, http.MethodGet, d.nodes[1].base+q.Path, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("node-1 %s: status %d err %v", q.Path, code, err)
		}
		if !bytes.Equal(body, tail[i].Body) {
			return fmt.Errorf("node-1 answer to %s differs from node-0's:\n  node-0 %.300s\n  node-1 %.300s",
				q.Path, tail[i].Body, body)
		}
	}
	return nil
}

// recoverNode0 SIGKILLs node-0, restarts it on the same data directory and
// returns the time from the kill to /readyz 200. The recovered node must
// report exactly the readings it had ingested before the kill (on one node,
// the readings acknowledged).
func recoverNode0(c *http.Client, d *deployment, ingested int) (time.Duration, error) {
	killed := time.Now()
	d.nodes[0].kill()
	p, err := d.fork(0)
	if err != nil {
		return 0, err
	}
	d.nodes[0] = p
	if err := p.waitReady(c, 60*time.Second); err != nil {
		return 0, err
	}
	rec := p.ready.Sub(killed)
	st, err := statsAll(c, d.bases())
	if err != nil {
		return 0, err
	}
	if got := st[0].Work.ReadingsIngested; got != ingested {
		return 0, fmt.Errorf("after SIGKILL and restart /stats ReadingsIngested = %d, before the kill = %d", got, ingested)
	}
	return rec, nil
}
