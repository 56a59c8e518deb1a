package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the generator's connection budget: at most two requests are
// ever in flight, one per core of the reference box.
const maxConns = 2

// opResult is one request the generator sent and what came back.
type opResult struct {
	Kind   string
	Path   string
	Status int
	Err    error
	Body   []byte
	Dur    time.Duration
	// Q is the scheduled query (nil for ingest); Readings the batch size;
	// Sec the index of its stream second in the driven schedule.
	Q        *Query
	Readings int
	Sec      int
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := reqOf(ctx); id != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// drive runs secs against base in lockstep, closed loop: POST a second's
// ingest batch and wait, then send that second's queries over maxConns
// connections and wait for all of them. Results come back in schedule
// order (ingest first, then queries, per second), independent of timing,
// with the wall time each stream second took.
// hook, when non-nil, opens each request (the traced run attaches its
// request ID) and returns the function to call once the response is read.
func drive(ctx context.Context, c *http.Client, base string, secs []Second,
	hook func(ctx context.Context, kind string) (context.Context, func())) ([]opResult, []time.Duration) {
	send := func(kind, method, url string, body []byte) (int, []byte, error) {
		rctx, done := ctx, func() {}
		if hook != nil {
			rctx, done = hook(ctx, kind)
		}
		code, b, err := do(rctx, c, method, url, body)
		done()
		return code, b, err
	}
	n := 0
	for _, s := range secs {
		n += 1 + len(s.Queries)
	}
	out := make([]opResult, 0, n)
	walls := make([]time.Duration, len(secs))
	for si := range secs {
		sec := &secs[si]
		secStart := time.Now()
		r := opResult{Kind: kindIngest, Path: "/ingest", Readings: sec.Readings, Sec: si}
		start := time.Now()
		r.Status, r.Body, r.Err = send(kindIngest, http.MethodPost, base+"/ingest", sec.Body)
		r.Dur = time.Since(start)
		out = append(out, r)

		qs := make([]opResult, len(sec.Queries))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < maxConns && w < len(sec.Queries); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(sec.Queries) {
						return
					}
					q := &sec.Queries[i]
					res := opResult{Kind: q.Kind, Path: q.Path, Q: q, Sec: si}
					start := time.Now()
					res.Status, res.Body, res.Err = send(q.Kind, http.MethodGet, base+q.Path, nil)
					res.Dur = time.Since(start)
					qs[i] = res
				}
			}()
		}
		wg.Wait()
		out = append(out, qs...)
		walls[si] = time.Since(secStart)
	}
	return out, walls
}

// getBody fetches a small status document (used outside timed phases).
func getBody(c *http.Client, url string) ([]byte, error) {
	code, b, err := do(context.Background(), c, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, code, bytes.TrimSpace(b))
	}
	return b, nil
}
