package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

func sampleResults() []opResult {
	rq := &Query{Kind: kindRange, Path: "/range?x=1", Truth: []model.ObjectID{3, 5}}
	kq := &Query{Kind: kindKNN, Path: "/knn?k=2", K: 2, Truth: []model.ObjectID{3, 9}}
	return []opResult{
		{Kind: kindIngest, Path: "/ingest", Status: http.StatusOK, Readings: 2, Dur: time.Millisecond,
			Body: []byte(`{"accepted":2,"dropped":0,"now":1,"received":2}`)},
		{Kind: kindRange, Path: rq.Path, Q: rq, Status: http.StatusOK, Dur: 2 * time.Millisecond,
			Body: []byte(`{"result":[{"object":3,"p":0.75},{"object":5,"p":0.5}],"window":[1,1,2,2]}`)},
		{Kind: kindKNN, Path: kq.Path, Q: kq, Status: http.StatusOK, Dur: 3 * time.Millisecond,
			Body: []byte(`{"k":2,"q":[1,1],"result":[{"object":3,"p":0.9},{"object":4,"p":0.6},{"object":9,"p":0.5}]}`)},
	}
}

func TestCheckPasses(t *testing.T) {
	o := Check(sampleResults())
	if len(o.Problems) != 0 || o.Failed != 0 || o.Attempted != 3 {
		t.Fatalf("problems %v failed %d attempted %d", o.Problems, o.Failed, o.Attempted)
	}
	if o.Acked != 2 {
		t.Errorf("acked %d readings, want 2", o.Acked)
	}
	if len(o.KL) != 1 || o.KL[0] <= 0 {
		t.Errorf("KL samples %v", o.KL)
	}
	// Top-2 by probability is {3, 4}; truth {3, 9}: one hit of two.
	if len(o.Hit) != 1 || o.Hit[0] != 0.5 {
		t.Errorf("hit samples %v, want [0.5]", o.Hit)
	}
}

func TestCheckAcceptsEmptyOccupancy(t *testing.T) {
	rs := []opResult{{Kind: kindOccupancy, Status: 200, Body: []byte(`{"occupancy":[]}` + "\n")}}
	if o := Check(rs); o.Failed != 0 {
		t.Fatalf("empty occupancy rejected: %v", o.Problems)
	}
}

func TestDigestCatchesChangedAnswer(t *testing.T) {
	base := Check(sampleResults()).Digest
	if again := Check(sampleResults()).Digest; again != base {
		t.Fatal("digest of identical answers differs")
	}
	rs := sampleResults()
	rs[1].Body = []byte(strings.Replace(string(rs[1].Body), "0.75", "0.7500000000000001", 1))
	if Check(rs).Digest == base {
		t.Fatal("digest did not change when one probability changed in its last digit")
	}
	rs = sampleResults()
	rs[1], rs[2] = rs[2], rs[1]
	if Check(rs).Digest == base {
		t.Fatal("digest did not change when answers were reordered")
	}
}

func TestCheckFlagsBadAnswers(t *testing.T) {
	cases := map[string]func(rs []opResult){
		"status 429": func(rs []opResult) { rs[1].Status = http.StatusTooManyRequests },
		"p above 1": func(rs []opResult) {
			rs[1].Body = []byte(`{"result":[{"object":3,"p":1.2}]}`)
		},
		"partial": func(rs []opResult) {
			rs[2].Body = []byte(`{"partial":true,"result":[]}`)
		},
		"malformed": func(rs []opResult) { rs[2].Body = []byte(`{"result":[`) },
		"negative occupancy": func(rs []opResult) {
			rs[2] = opResult{Kind: kindOccupancy, Status: 200, Body: []byte(`{"occupancy":[{"room":"a","p":-1}]}`)}
		},
		"missing occupancy": func(rs []opResult) {
			rs[2] = opResult{Kind: kindOccupancy, Status: 200, Body: []byte(`{"result":[]}`)}
		},
		"dropped readings": func(rs []opResult) { rs[0].Body = []byte(`{"accepted":1,"dropped":1,"received":2}`) },
	}
	for name, mutate := range cases {
		rs := sampleResults()
		mutate(rs)
		if o := Check(rs); o.Failed != 1 || len(o.Problems) != 1 {
			t.Errorf("%s: failed %d problems %v", name, o.Failed, o.Problems)
		}
	}
}
