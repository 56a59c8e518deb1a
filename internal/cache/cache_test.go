package cache

import (
	"testing"

	"repro/internal/anchor"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/particle"
	"repro/internal/walkgraph"
)

func state(obj model.ObjectID, t model.Time) *particle.State {
	return &particle.State{
		Object: obj,
		Time:   t,
		Particles: []particle.Particle{
			{Loc: walkgraph.Location{Edge: 1, Offset: 2}, Speed: 1, Weight: 1},
		},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	got, ok := c.Get(1, 5, 110)
	if !ok {
		t.Fatal("expected hit")
	}
	if got.Object != 1 || got.Time != 100 {
		t.Errorf("state = %+v", got)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 0 {
		t.Errorf("stats = %d, %d", hits, misses)
	}
}

func TestGetMissUnknownObject(t *testing.T) {
	c := New(60)
	if _, ok := c.Get(9, 5, 100); ok {
		t.Fatal("hit on empty cache")
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Error("miss not counted")
	}
}

func TestGetMissOnDeviceChange(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	if _, ok := c.Get(1, 6, 110); ok {
		t.Fatal("hit despite device change")
	}
	// The stale entry must be dropped entirely.
	if c.Len() != 0 {
		t.Error("stale entry kept")
	}
}

func TestGetMissOnExpiry(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	if _, ok := c.Get(1, 5, 161); ok {
		t.Fatal("hit on expired entry")
	}
	if c.Len() != 0 {
		t.Error("expired entry kept")
	}
	// Exactly at the lifetime is still valid.
	c.Put(state(2, 100), 5)
	if _, ok := c.Get(2, 5, 160); !ok {
		t.Error("entry at exact lifetime should hit")
	}
}

// TestGetLendsCachedState pins the ownership handoff on the way out: Get
// returns the cache's own state, not a copy, so the caller advances it in
// place and puts it back; the memoized distribution travels with it until a
// plain Put drops it.
func TestGetLendsCachedState(t *testing.T) {
	c := New(60)
	st := state(1, 100)
	dist := map[anchor.ID]float64{3: 1}
	c.PutDistribution(st, 5, dist)
	got, memo, ok := c.GetDistribution(1, 5, 100)
	if !ok || got != st {
		t.Fatalf("Get returned %p (ok=%v), want the stored state %p", got, ok, st)
	}
	if memo[3] != 1 || len(memo) != 1 {
		t.Errorf("memoized distribution = %v, want %v", memo, dist)
	}
	got.Particles[0].Speed = 99
	got.Time = 130
	c.Put(got, 5)
	again, memo, _ := c.GetDistribution(1, 5, 130)
	if again != st || again.Particles[0].Speed != 99 || again.Time != 130 {
		t.Error("advanced state not what the next Get lends out")
	}
	if memo != nil {
		t.Errorf("plain Put kept the memoized distribution %v", memo)
	}
	if plain, ok := c.Get(1, 5, 130); !ok || plain != st {
		t.Error("Get and GetDistribution lend different states")
	}
}

// TestPutTakesOwnership pins the handoff on the way in: Put keeps the
// caller's state itself, while Dump and RestoreEntries still copy, so a
// snapshot never aliases a live state and a restored entry carries no memo.
func TestPutTakesOwnership(t *testing.T) {
	c := New(60)
	st := state(1, 100)
	c.PutDistribution(st, 5, map[anchor.ID]float64{3: 1})
	st.Particles[0].Speed = 77
	got, _ := c.Get(1, 5, 100)
	if got.Particles[0].Speed != 77 {
		t.Error("Put stored a copy instead of the state itself")
	}
	dump := c.Dump()
	st.Particles[0].Speed = 88
	if dump[0].State.Particles[0].Speed != 77 {
		t.Error("Dump aliases the live state")
	}
	c.RestoreEntries(dump)
	restored, memo, ok := c.GetDistribution(1, 5, 100)
	if !ok || restored == st || restored.Particles[0].Speed != 77 {
		t.Error("RestoreEntries did not install a copy of the dumped state")
	}
	if memo != nil {
		t.Errorf("restored entry carries a memoized distribution %v", memo)
	}
	dump[0].State.Particles[0].Speed = 66
	if restored.Particles[0].Speed != 77 {
		t.Error("restored entry aliases the dump")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	c.Invalidate(1, 5) // same device: keep
	if c.Len() != 1 {
		t.Error("same-device invalidate dropped entry")
	}
	c.Invalidate(1, 6) // new device: drop
	if c.Len() != 0 {
		t.Error("new-device invalidate kept entry")
	}
	c.Invalidate(42, 1) // unknown object: no-op
}

func TestRemoveAndClear(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	c.Put(state(2, 100), 5)
	c.Remove(1)
	if c.Len() != 1 {
		t.Error("Remove failed")
	}
	c.Get(2, 5, 100)
	c.Clear()
	if c.Len() != 0 {
		t.Error("Clear failed")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("Clear did not reset stats")
	}
}

func TestEvictExpired(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	c.Put(state(2, 150), 5)
	c.EvictExpired(190)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Get(2, 5, 190); !ok {
		t.Error("young entry evicted")
	}
}

func TestDefaultLifetime(t *testing.T) {
	c := New(0)
	c.Put(state(1, 100), 5)
	if _, ok := c.Get(1, 5, 100+DefaultLifetime); !ok {
		t.Error("default lifetime not applied")
	}
	if _, ok := c.Get(1, 5, 100+DefaultLifetime+1); ok {
		t.Error("entry outlived default lifetime")
	}
}

// TestInstrumentCounters drives every eviction path and checks the attached
// telemetry counters track the cache's own accounting.
func TestInstrumentCounters(t *testing.T) {
	reg := obs.NewRegistry()
	events := reg.CounterVec("cache_events_total", "test", "event")
	hit, miss, evict := events.With("hit"), events.With("miss"), events.With("evict")
	c := New(60)
	c.Instrument(hit, miss, evict)

	c.Get(1, 5, 100) // miss: unknown
	c.Put(state(1, 100), 5)
	c.Get(1, 5, 110) // hit
	c.Get(1, 7, 110) // device changed: eviction + miss
	c.Put(state(2, 100), 5)
	c.Get(2, 5, 500) // expired: eviction + miss
	c.Put(state(3, 100), 5)
	c.Invalidate(3, 9) // eviction
	c.Put(state(4, 100), 5)
	c.Remove(4) // eviction
	c.Remove(4) // no entry: no eviction
	c.Put(state(5, 100), 5)
	c.EvictExpired(1000) // eviction

	hits, misses := c.Stats()
	if got := hit.Value(); got != uint64(hits) || got != 1 {
		t.Errorf("hit counter %d, stats %d, want 1", got, hits)
	}
	if got := miss.Value(); got != uint64(misses) || got != 3 {
		t.Errorf("miss counter %d, stats %d, want 3", got, misses)
	}
	if got := evict.Value(); got != 5 {
		t.Errorf("eviction counter %d, want 5", got)
	}
}

// TestUninstrumentedCacheSafe checks the nil-counter path stays silent.
func TestUninstrumentedCacheSafe(t *testing.T) {
	c := New(60)
	c.Put(state(1, 100), 5)
	c.Get(1, 5, 110)
	c.Get(1, 7, 110)
	c.Remove(1)
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d, %d", hits, misses)
	}
}
