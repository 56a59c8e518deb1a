package main

import (
	"testing"
	"time"
)

func TestSelfTimesSumToRoundTrip(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ss := []span{
		{req: 1, layer: "client", depth: 0, start: at(0), end: at(100)},
		{req: 1, layer: "server", depth: 1, start: at(10), end: at(90)},
		{req: 1, layer: "engine.ingest", depth: 2, start: at(20), end: at(80)},
		// Two shards fsync in parallel: the overlap is split between them.
		{req: 1, layer: "wal.fsync", depth: 3, start: at(30), end: at(50)},
		{req: 1, layer: "wal.fsync", depth: 3, start: at(40), end: at(60)},
	}
	self := selfTimes(ss, &ss[0])
	want := map[string]time.Duration{
		"client":        20 * time.Millisecond,
		"server":        20 * time.Millisecond,
		"engine.ingest": 30 * time.Millisecond,
		"wal.fsync":     30 * time.Millisecond,
	}
	var sum time.Duration
	for l, d := range self {
		sum += d
		if d != want[l] {
			t.Errorf("%s self = %v, want %v", l, d, want[l])
		}
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the 100ms round trip", sum)
	}
}

func TestLedgerPerKind(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	tr.kinds[1], tr.kinds[2] = kindRange, kindRange
	for id := uint64(1); id <= 2; id++ {
		tr.spans = append(tr.spans,
			span{req: id, layer: "client", depth: 0, start: t0, end: t0.Add(10 * time.Millisecond)},
			span{req: id, layer: "server", depth: 1, start: t0.Add(time.Millisecond), end: t0.Add(9 * time.Millisecond)})
	}
	// A span outside any request never enters the ledger.
	tr.spans = append(tr.spans, span{layer: "wal.snapshot", depth: 3, start: t0, end: t0.Add(time.Second)})
	rows := tr.Ledger()
	if len(rows) != 1 || rows[0].Kind != kindRange || rows[0].Requests != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Total != 10 || r.Self["client"] != 2 || r.Self["server"] != 8 {
		t.Fatalf("row = %+v", r)
	}
}
