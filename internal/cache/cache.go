// Package cache implements the paper's cache management module: it stores
// per-object particle states between queries so that a later query for the
// same object resumes particle filtering from the cached time stamp instead
// of re-running it from the first reading. Entries are discarded whenever
// the object is detected by a new device (keeping every object's filtering
// based on the readings of its two most recent devices) and age out after a
// configurable lifetime, since moving patterns from a distant past add
// nothing to current inferences.
//
// States change hands by ownership, not by copy: Put takes the caller's
// state, and Get lends the cached one out for the caller to advance in place
// and Put back. That is safe because the cache is not safe for concurrent
// use anyway — every caller holds the engine (or shard) lock from Get to
// Put. Alongside each state the cache keeps the anchor distribution last
// computed from it, so a query that would not move the state can reuse the
// distribution instead of snapping every particle again.
package cache

import (
	"repro/internal/anchor"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/particle"
)

// DefaultLifetime is the default entry lifetime in seconds. It matches the
// particle filter's coast limit: a state older than that cannot influence
// the present distribution anyway.
const DefaultLifetime model.Time = 60

// Cache stores particle states keyed by object.
type Cache struct {
	lifetime model.Time
	entries  map[model.ObjectID]entry
	hits     int
	misses   int
	// Optional live telemetry mirrors of the counters above plus an
	// eviction count; nil until Instrument attaches them.
	mHits, mMisses, mEvictions *obs.Counter
}

// Instrument attaches telemetry counters incremented alongside the cache's
// own accounting: hits and misses mirror Stats, and evictions counts every
// entry removed other than by a Put overwrite (staleness on Get, the ENTER
// invalidation rule, lifetime expiry, and explicit Remove).
func (c *Cache) Instrument(hits, misses, evictions *obs.Counter) {
	c.mHits, c.mMisses, c.mEvictions = hits, misses, evictions
}

func (c *Cache) countHit() {
	c.hits++
	if c.mHits != nil {
		c.mHits.Inc()
	}
}

func (c *Cache) countMiss() {
	c.misses++
	if c.mMisses != nil {
		c.mMisses.Inc()
	}
}

func (c *Cache) countEviction() {
	if c.mEvictions != nil {
		c.mEvictions.Inc()
	}
}

type entry struct {
	state  *particle.State
	device model.ReaderID
	// dist memoizes state.AnchorDistribution; nil when not known (a plain
	// Put, or an entry restored from a snapshot).
	dist map[anchor.ID]float64
}

// New returns an empty cache with the given entry lifetime. Non-positive
// lifetimes fall back to DefaultLifetime.
func New(lifetime model.Time) *Cache {
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	return &Cache{lifetime: lifetime, entries: make(map[model.ObjectID]entry)}
}

// Put takes ownership of the object's particle state and stores it together
// with the device that was its most recent detector when the state was
// computed. The caller must not touch st afterwards except through a later
// Get. Any memoized distribution is dropped.
func (c *Cache) Put(st *particle.State, device model.ReaderID) {
	c.PutDistribution(st, device, nil)
}

// PutDistribution is Put that also memoizes dist, which must be exactly
// st.AnchorDistribution for the state as stored. The cache keeps the map and
// hands it out from GetDistribution; nobody may modify it.
func (c *Cache) PutDistribution(st *particle.State, device model.ReaderID, dist map[anchor.ID]float64) {
	c.entries[st.Object] = entry{state: st, device: device, dist: dist}
}

// Get lends out the cached state for the object if it is usable: the
// object's current most recent device must equal the cached one (otherwise
// the entry is stale by the paper's invalidation rule and is dropped), and
// the entry must be younger than the lifetime. The returned state is the
// cache's own: the caller may advance it in place, and must then Put it back
// before anyone else uses the cache (an advanced state left in place would
// keep a stale memoized distribution).
func (c *Cache) Get(obj model.ObjectID, currentDevice model.ReaderID, now model.Time) (*particle.State, bool) {
	st, _, ok := c.GetDistribution(obj, currentDevice, now)
	return st, ok
}

// GetDistribution is Get that also returns the memoized anchor distribution
// of the lent state (nil when none is known). The map is shared with the
// cache and must not be modified.
func (c *Cache) GetDistribution(obj model.ObjectID, currentDevice model.ReaderID, now model.Time) (*particle.State, map[anchor.ID]float64, bool) {
	e, ok := c.entries[obj]
	if !ok {
		c.countMiss()
		return nil, nil, false
	}
	if e.device != currentDevice || now-e.state.Time > c.lifetime {
		delete(c.entries, obj)
		c.countEviction()
		c.countMiss()
		return nil, nil, false
	}
	c.countHit()
	return e.state, e.dist, true
}

// Invalidate removes the object's entry if its most recent device changed.
// The engine calls this on every ENTER event.
func (c *Cache) Invalidate(obj model.ObjectID, newDevice model.ReaderID) {
	if e, ok := c.entries[obj]; ok && e.device != newDevice {
		delete(c.entries, obj)
		c.countEviction()
	}
}

// Remove unconditionally drops the object's entry.
func (c *Cache) Remove(obj model.ObjectID) {
	if _, ok := c.entries[obj]; ok {
		delete(c.entries, obj)
		c.countEviction()
	}
}

// EvictExpired drops every entry older than the lifetime.
func (c *Cache) EvictExpired(now model.Time) {
	for obj, e := range c.entries {
		if now-e.state.Time > c.lifetime {
			delete(c.entries, obj)
			c.countEviction()
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int) { return c.hits, c.misses }

// Clear empties the cache and resets statistics.
func (c *Cache) Clear() {
	c.entries = make(map[model.ObjectID]entry)
	c.hits, c.misses = 0, 0
}
