package cache

import (
	"sort"

	"repro/internal/model"
	"repro/internal/particle"
)

// Entry is one cached particle state in serializable form (exported fields
// for encoding/gob).
type Entry struct {
	State  particle.State
	Device model.ReaderID
}

// Dump returns every live entry sorted by object ID, with deep-copied
// particle states, for inclusion in an engine snapshot. The copies matter:
// the live states are advanced in place by later queries (the cache hands
// them out by ownership), and a snapshot must not change under its encoder.
// Memoized distributions are not dumped; they are derived data. The states'
// LastRun stage timings are zeroed: they are wall-clock diagnostics, and
// leaving them in would make the snapshot encoding of one logical state
// differ run to run (the engine's parallel-determinism tests compare
// snapshots byte for byte).
func (c *Cache) Dump() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		st := *e.state.Clone()
		st.LastRun = particle.RunStats{}
		out = append(out, Entry{State: st, Device: e.device})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].State.Object < out[j].State.Object })
	return out
}

// RestoreEntries replaces the cache contents with copies of the dumped
// entries, without memoized distributions: the first query after a restore
// recomputes each one. Hit and miss counters are untouched; use RestoreStats
// for those.
func (c *Cache) RestoreEntries(entries []Entry) {
	c.entries = make(map[model.ObjectID]entry, len(entries))
	for _, e := range entries {
		st := e.State
		c.entries[st.Object] = entry{state: st.Clone(), device: e.Device}
	}
}

// RestoreStats overwrites the cumulative hit and miss counters (recovery
// support; the live telemetry mirrors are not replayed).
func (c *Cache) RestoreStats(hits, misses int) {
	c.hits, c.misses = hits, misses
}
