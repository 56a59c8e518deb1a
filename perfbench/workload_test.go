package main

import (
	"bytes"
	"net/url"
	"strconv"
	"testing"
)

func smallSchedule(t *testing.T, w Workload, seed int64) *Schedule {
	t.Helper()
	world, err := newWorld()
	if err != nil {
		t.Fatal(err)
	}
	w.Objects = 40
	sch, err := Generate(world, w, seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := smallSchedule(t, w, 7), smallSchedule(t, w, 7)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: same seed gave different inputs", w.Name)
		}
		for i := range a.Timed {
			if !bytes.Equal(a.Timed[i].Body, b.Timed[i].Body) {
				t.Fatalf("%s: second %d ingest bodies differ", w.Name, i)
			}
		}
		if c := smallSchedule(t, w, 8); c.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.Name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w, err := findWorkload("dashboard")
	if err != nil {
		t.Fatal(err)
	}
	world, err := newWorld()
	if err != nil {
		t.Fatal(err)
	}
	sch := smallSchedule(t, w, 3)
	if len(sch.Warmup) != warmupSeconds || len(sch.Timed) != 20 {
		t.Fatalf("got %d+%d seconds", len(sch.Warmup), len(sch.Timed))
	}
	if sch.Timed[0].T != sch.Warmup[warmupSeconds-1].T+1 {
		t.Fatal("timed phase does not continue the warm-up stream")
	}
	area := world.Plan.TotalArea()
	bounds := world.Plan.Bounds()
	occ := 0
	for _, s := range append(sch.Warmup, sch.Timed...) {
		for _, q := range s.Queries {
			switch q.Kind {
			case kindRange:
				frac := q.Win.Width() * q.Win.Height() / area
				if frac < 0.01-1e-9 || frac > 0.05+1e-9 {
					t.Errorf("window covers %.4f of the floor", frac)
				}
				if q.Win.Min.X < bounds.Min.X || q.Win.Max.X > bounds.Max.X+1e-9 ||
					q.Win.Min.Y < bounds.Min.Y || q.Win.Max.Y > bounds.Max.Y+1e-9 {
					t.Errorf("window %v outside plan bounds %v", q.Win, bounds)
				}
				u, _ := url.Parse(q.Path)
				if x, _ := strconv.ParseFloat(u.Query().Get("x"), 64); x != q.Win.Min.X {
					t.Errorf("query URI x=%v does not round-trip %v", x, q.Win.Min.X)
				}
			case kindKNN:
				if q.K < 2 || q.K > 9 {
					t.Errorf("k = %d outside 2..9", q.K)
				}
				if len(q.Truth) != q.K {
					t.Errorf("kNN truth has %d objects, want %d", len(q.Truth), q.K)
				}
			case kindOccupancy:
				occ++
			}
		}
	}
	if occ != (warmupSeconds+20)/w.OccupancyEvery {
		t.Errorf("%d occupancy queries over 80 seconds, want one per %d", occ, w.OccupancyEvery)
	}
}
