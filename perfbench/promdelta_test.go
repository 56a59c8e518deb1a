package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP repro_cache_events_total Cache events.
# TYPE repro_cache_events_total counter
repro_cache_events_total{event="hit"} 10
repro_cache_events_total{event="miss"} 4
# HELP repro_shard_step_seconds Step time.
# TYPE repro_shard_step_seconds histogram
repro_shard_step_seconds_bucket{shard="0",le="0.1"} 2
repro_shard_step_seconds_bucket{shard="0",le="+Inf"} 2
repro_shard_step_seconds_sum{shard="0"} 0.5
repro_shard_step_seconds_count{shard="0"} 2
`

const scrapeAfter = `# HELP repro_cache_events_total Cache events.
# TYPE repro_cache_events_total counter
repro_cache_events_total{event="hit"} 25
repro_cache_events_total{event="miss"} 5
# HELP repro_degraded_transitions_total Transitions.
# TYPE repro_degraded_transitions_total counter
repro_degraded_transitions_total 0
# HELP repro_shard_step_seconds Step time.
# TYPE repro_shard_step_seconds histogram
repro_shard_step_seconds_bucket{shard="0",le="0.1"} 3
repro_shard_step_seconds_bucket{shard="0",le="+Inf"} 5
repro_shard_step_seconds_sum{shard="0"} 1.25
repro_shard_step_seconds_count{shard="0"} 5
repro_shard_step_seconds_bucket{shard="1",le="0.1"} 1
repro_shard_step_seconds_bucket{shard="1",le="+Inf"} 1
repro_shard_step_seconds_sum{shard="1"} 0.25
repro_shard_step_seconds_count{shard="1"} 1
`

func mustScrape(t *testing.T, doc string) Scrape {
	t.Helper()
	s, err := ParseScrape(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDelta(t *testing.T) {
	d := Delta(mustScrape(t, scrapeBefore), mustScrape(t, scrapeAfter))
	if got := d.Sum("repro_cache_events_total", `event="hit"`); got != 15 {
		t.Errorf("hit delta = %v, want 15", got)
	}
	if got := d.Sum("repro_cache_events_total"); got != 16 {
		t.Errorf("all cache events delta = %v, want 16", got)
	}
	// A series first seen in the later scrape counts from zero.
	if got := d.Sum("repro_shard_step_seconds_sum", `shard="1"`); got != 0.25 {
		t.Errorf("new shard delta = %v, want 0.25", got)
	}
	if got := d.Sum("repro_shard_step_seconds_sum"); got != 1.0 {
		t.Errorf("step seconds delta = %v, want 1", got)
	}
	if got := d.Sum("repro_shard_step_seconds_count", `shard="0"`); got != 3 {
		t.Errorf("shard 0 count delta = %v, want 3", got)
	}
	if got := d.Sum("repro_degraded_transitions_total"); got != 0 {
		t.Errorf("degraded transitions delta = %v", got)
	}
	// A label value must match whole, not as a prefix.
	if got := d.Sum("repro_cache_events_total", `event="hi"`); got != 0 {
		t.Errorf("prefix label matched: %v", got)
	}
}

func TestShardSkew(t *testing.T) {
	d := Delta(mustScrape(t, scrapeBefore), mustScrape(t, scrapeAfter))
	// Shard 0 did 0.75 s, shard 1 0.25 s: max/mean = 0.75/0.5.
	skew, n := shardSkew(d, "repro_shard_step_seconds_sum")
	if n != 2 || skew != 1.5 {
		t.Fatalf("skew = %v over %d shards, want 1.5 over 2", skew, n)
	}
	if _, n := shardSkew(d, "repro_shard_evaluate_seconds_sum"); n != 0 {
		t.Fatalf("skew over an absent family reported %d shards", n)
	}
}

func TestParseScrapeRejectsMalformed(t *testing.T) {
	bad := "# HELP x X.\n# TYPE x counter\nx{a=\"1\" 3\n"
	if _, err := ParseScrape(strings.NewReader(bad)); err == nil {
		t.Fatal("malformed exposition accepted")
	}
}
