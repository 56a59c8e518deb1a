package engine

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log"
	"time"

	"repro/internal/cache"
	"repro/internal/collector"
	"repro/internal/floorplan"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/rfid"
	"repro/internal/wal"
)

// DurabilityConfig configures the write-ahead log and snapshot store.
type DurabilityConfig struct {
	// Dir is the data directory holding segments and snapshots. Empty
	// disables durability.
	Dir string
	// Fsync selects when appended records are forced to disk: SyncAlways
	// fsyncs before every Ingest returns (no acked flushed second is ever
	// lost), SyncInterval fsyncs at most once per FsyncInterval, SyncOff
	// leaves flushing to the OS.
	Fsync wal.SyncPolicy
	// FsyncInterval is the minimum spacing between fsyncs under
	// SyncInterval. 0 means 1 second.
	FsyncInterval time.Duration
	// SnapshotEvery writes an engine snapshot every N acked seconds, so
	// recovery is a snapshot load plus a bounded replay. 0 disables periodic
	// snapshots (one is still written on Close).
	SnapshotEvery int
	// SegmentBytes is the WAL segment rotation size. 0 means the wal
	// package default (8 MiB).
	SegmentBytes int64
	// KeepSnapshots is how many snapshots to retain; older ones (and the
	// segments only they need) are pruned. 0 means 2.
	KeepSnapshots int
	// Retry bounds the transient-error retries on WAL appends and fsyncs.
	// Only transient failures (wal.IsTransient) are retried; permanent ones
	// fail stop immediately (single engine) or quarantine the shard
	// (sharded engine).
	Retry RetryConfig
	// FS is the filesystem every WAL and snapshot byte goes through. nil
	// means the real OS filesystem; tests inject fault-wrapped filesystems
	// (internal/sim/errfs).
	FS wal.FS
	// HealBaseDelay and HealMaxDelay pace the sharded engine's background
	// self-heal loop: the first attempt to re-open a quarantined shard
	// comes HealBaseDelay after the quarantine (or the restart that found
	// its marker), and later attempts back off exponentially up to
	// HealMaxDelay. Sharded.HealNow heals at once. 0 means 500ms and 15s.
	HealBaseDelay time.Duration
	HealMaxDelay  time.Duration
}

// RetryConfig bounds the exponential-backoff retry of transient WAL errors.
type RetryConfig struct {
	// Max is the number of re-attempts after the first failure. 0 means the
	// default (3); negative disables retries.
	Max int
	// BaseDelay is the wait before the first retry, doubled per attempt up
	// to MaxDelay, with deterministic ±50% jitter. 0 means 2ms and 100ms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (rc RetryConfig) max() int {
	if rc.Max < 0 {
		return 0
	}
	if rc.Max == 0 {
		return 3
	}
	return rc.Max
}

// delay returns the backoff before retry attempt (0-based). salt
// deterministically perturbs the wait so lockstep retries across shards
// spread out, without any global randomness source.
func (rc RetryConfig) delay(attempt int, salt uint64) time.Duration {
	base, cap := rc.BaseDelay, rc.MaxDelay
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if cap <= 0 {
		cap = 100 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	// splitmix64 over (salt, attempt) → jitter in [d/2, d).
	x := salt + uint64(attempt)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if d > 1 {
		d = d/2 + time.Duration(x%uint64(d))/2
	}
	return d
}

// Enabled reports whether durability is configured at all.
func (d DurabilityConfig) Enabled() bool { return d.Dir != "" }

func (d DurabilityConfig) fsyncInterval() time.Duration {
	if d.FsyncInterval <= 0 {
		return time.Second
	}
	return d.FsyncInterval
}

func (d DurabilityConfig) keepSnapshots() int {
	if d.KeepSnapshots <= 0 {
		return 2
	}
	return d.KeepSnapshots
}

func (d DurabilityConfig) fsys() wal.FS {
	if d.FS == nil {
		return wal.OS
	}
	return d.FS
}

func (d DurabilityConfig) healBaseDelay() time.Duration {
	if d.HealBaseDelay <= 0 {
		return 500 * time.Millisecond
	}
	return d.HealBaseDelay
}

func (d DurabilityConfig) healMaxDelay() time.Duration {
	if d.HealMaxDelay <= 0 {
		return 15 * time.Second
	}
	return d.HealMaxDelay
}

// snapFailBackoff is how many consecutive snapshot failures are retried on
// the very next flushed second before the schedule backs off a full
// SnapshotEvery window (bounded retry: a persistently failing snapshot store
// must not turn every flush into a doomed write).
const snapFailBackoff = 3

// retryTransient runs op, retrying transient failures (wal.IsTransient) with
// bounded exponential backoff and deterministic jitter. reset (nil ok) runs
// before each re-attempt to undo partial on-disk effects of the failure —
// Log.ResetTail for appends. Every wait is counted and traced so retries are
// visible, never silent. The returned error is the last attempt's (nil on
// success); permanent errors return immediately.
func retryTransient(rc RetryConfig, tel *Telemetry, tr *trace.Context, shard int, salt uint64,
	reset func() error, op func() error) error {
	err := op()
	for attempt, max := 0, rc.max(); err != nil && attempt < max && wal.IsTransient(err); attempt++ {
		wstart := time.Now()
		time.Sleep(rc.delay(attempt, salt))
		tel.walRetries.Inc()
		tr.Since("wal-retry", shard, wstart)
		if reset != nil {
			if rerr := reset(); rerr != nil {
				return err
			}
		}
		err = op()
	}
	return err
}

// RecoveryInfo describes what Open found and did in the data directory.
type RecoveryInfo struct {
	// Enabled is false when the system was built without durability.
	Enabled bool `json:"enabled"`
	// SnapshotRestored reports whether a snapshot was loaded; SnapshotSeq is
	// the last WAL sequence it covered. SnapshotsSkipped counts corrupt
	// snapshots passed over to reach a readable one.
	SnapshotRestored bool   `json:"snapshotRestored"`
	SnapshotSeq      uint64 `json:"snapshotSeq"`
	SnapshotsSkipped int    `json:"snapshotsSkipped"`
	// RecordsReplayed / ReadingsReplayed count the WAL records (acked
	// seconds) and raw readings applied on top of the snapshot.
	RecordsReplayed  int `json:"recordsReplayed"`
	ReadingsReplayed int `json:"readingsReplayed"`
	// Corrupt reports a damaged WAL tail: TruncatedBytes were cut from the
	// last usable segment and SegmentsRemoved unreachable segments deleted.
	Corrupt         bool  `json:"corrupt"`
	TruncatedBytes  int64 `json:"truncatedBytes"`
	SegmentsRemoved int   `json:"segmentsRemoved"`
	// LastSeq is the WAL position appends continue from.
	LastSeq uint64 `json:"lastSeq"`
}

// Recovery returns what Open found in the data directory (zero for systems
// built with New).
func (s *System) Recovery() RecoveryInfo { return s.recovery }

// DurabilityEnabled reports whether this system writes a WAL.
func (s *System) DurabilityEnabled() bool { return s.wal != nil }

// WALError returns the sticky WAL failure that fail-stopped ingestion, or
// nil while the log is healthy.
func (s *System) WALError() error { return s.walErr }

// StreamID derives the durability stream identity: an FNV-64a hash over the
// floor plan, the reader deployment, the seed, and the history mode. A WAL
// or snapshot written under a different identity refuses to load with a
// *wal.MismatchError instead of replaying readings into the wrong world.
func (c Config) StreamID(plan *floorplan.Plan, dep *rfid.Deployment) (uint64, error) {
	h := fnv.New64a()
	payload := struct {
		Rooms    []floorplan.Room
		Hallways []floorplan.Hallway
		Doors    []floorplan.Door
		Links    []floorplan.Link
		Readers  []rfid.Reader
		Pairs    []rfid.DirectedPair
		Seed     int64
		History  bool
	}{plan.Rooms(), plan.Hallways(), plan.Doors(), plan.Links(),
		dep.Readers(), dep.DirectedPairs(), c.Seed, c.KeepHistory}
	if err := json.NewEncoder(h).Encode(payload); err != nil {
		return 0, fmt.Errorf("engine: hash stream identity: %w", err)
	}
	return h.Sum64(), nil
}

// engineSnap is the gob-encoded snapshot payload: everything needed to
// resume ingestion and answer queries identically. The system's free-running
// Monte Carlo source (PTKNN, symbolic kNN) is deliberately absent — query
// determinism rests on per-object streams derived from (Seed, object, last
// reading time), which the restored collector state reproduces exactly.
type engineSnap struct {
	Stats          Stats
	Collector      collector.Snapshot
	CacheEntries   []cache.Entry
	CacheHits      int
	CacheMisses    int
	Events         []model.Event
	EventOff       int
	ReorderStarted bool
	Watermark      model.Time
	MaxSeen        model.Time
	Drops          ingest.Drops
	Forced         int
}

// Open assembles a System like New and, when cfg.Durability is enabled,
// recovers it from the data directory: the newest readable snapshot is
// restored, the WAL replayed from there (repairing a torn or corrupt tail
// in place), and every subsequent acked second is logged. Recovery is
// deterministic — the recovered system answers queries bit-for-bit like an
// uncrashed one over the same acked prefix. A directory written by a
// different floor plan, deployment, or seed refuses to load with a
// *wal.MismatchError.
func Open(plan *floorplan.Plan, dep *rfid.Deployment, cfg Config) (*System, error) {
	s, err := New(plan, dep, cfg)
	if err != nil {
		return nil, err
	}
	d := cfg.Durability
	if !d.Enabled() {
		return s, nil
	}
	sid, err := cfg.StreamID(plan, dep)
	if err != nil {
		return nil, err
	}
	s.streamID = sid
	rec := RecoveryInfo{Enabled: true}

	snapSeq, payload, ok, skipped, err := wal.ReadLatestSnapshotFS(d.fsys(), d.Dir, sid)
	if err != nil {
		return nil, err
	}
	rec.SnapshotsSkipped = skipped
	var snap engineSnap
	if ok {
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
			return nil, fmt.Errorf("engine: decode snapshot: %w", err)
		}
		s.restoreSnap(&snap)
		rec.SnapshotRestored = true
		rec.SnapshotSeq = snapSeq
		s.walSeq = snapSeq
	}

	// Replay the log on top. Records at or below the snapshot are skipped;
	// above it the sequence must be gapless, or the directory lost acked
	// records some other way than a torn tail and must not pretend otherwise.
	var lastBatch *wal.Batch
	expected := snapSeq + 1
	l, report, err := wal.Open(d.Dir, wal.Options{StreamID: sid, SegmentBytes: d.SegmentBytes, FS: d.FS},
		func(seq uint64, payload []byte) error {
			if seq <= snapSeq {
				return nil
			}
			if seq != expected {
				return fmt.Errorf("engine: WAL gap: snapshot covers seq %d but next record is %d (want %d)",
					snapSeq, seq, expected)
			}
			b, err := wal.DecodeBatch(payload)
			if err != nil {
				return err
			}
			s.applySecond(b.Time, b.Readings)
			lastBatch = &b
			rec.RecordsReplayed++
			rec.ReadingsReplayed += len(b.Readings)
			expected++
			s.walSeq = seq
			return nil
		})
	if err != nil {
		return nil, err
	}
	rec.Corrupt = report.Corrupt
	rec.TruncatedBytes = report.TruncatedBytes
	rec.SegmentsRemoved = report.RemovedSegments
	rec.LastSeq = s.walSeq

	// Position the reorder buffer at the recovered stream point. The last
	// record's view wins over the snapshot's; restoring its exact watermark
	// (rather than re-deriving maxSeen-horizon) errs toward re-accepting a
	// retransmission of a flushed-but-unacked crash-window second instead of
	// refusing it as late.
	switch {
	case lastBatch != nil:
		s.reorder.Restore(lastBatch.Time, lastBatch.MaxSeen, lastBatch.Drops, lastBatch.Forced)
	case rec.SnapshotRestored && snap.ReorderStarted:
		s.reorder.Restore(snap.Watermark, snap.MaxSeen, snap.Drops, snap.Forced)
	}

	s.wal = l
	s.recovery = rec
	s.lastSync = time.Now()
	s.tel.walReplayed.Set(uint64(rec.RecordsReplayed))
	s.tel.walTruncatedBytes.Set(uint64(rec.TruncatedBytes))
	s.tel.walSnapshotsSkipped.Set(uint64(rec.SnapshotsSkipped))
	if rec.Corrupt {
		log.Printf("engine: repaired WAL tail in %s: %d bytes truncated, %d segments removed",
			d.Dir, rec.TruncatedBytes, rec.SegmentsRemoved)
	}
	// If the replay itself was long, snapshot now so the next recovery is
	// bounded again.
	if d.SnapshotEvery > 0 && rec.RecordsReplayed >= d.SnapshotEvery {
		s.writeSnapshot()
	}
	return s, nil
}

// appendWAL logs one flushed second. On failure the error is sticky:
// ingestion fail-stops rather than silently running memory-only.
func (s *System) appendWAL(t model.Time, raws []model.RawReading) {
	wm, _ := s.reorder.Watermark()
	ms, _ := s.reorder.MaxSeen()
	b := wal.Batch{
		Time:     t,
		MaxSeen:  ms,
		Forced:   s.reorder.ForcedFlushes(),
		Drops:    s.reorder.Drops(),
		Readings: raws,
	}
	// The incremental flush contract guarantees the watermark equals the
	// second being flushed here; if that ever breaks, the record would lie
	// about the recovery position, so refuse to write it.
	if wm != t {
		s.failWAL(fmt.Errorf("engine: flush watermark %d disagrees with flushed second %d", wm, t))
		return
	}
	s.walBuf = b.Encode(s.walBuf[:0])
	err := retryTransient(s.cfg.Durability.Retry, s.tel, s.curTrace, s.shardID,
		s.streamID^s.walSeq, s.wal.ResetTail, func() error {
			return s.wal.Append(s.walSeq+1, s.walBuf)
		})
	if err != nil {
		s.failWAL(err)
		return
	}
	s.walSeq++
	s.sinceSnap++
	s.tel.walRecords.Inc()
}

// syncWAL applies the fsync policy after an ingest step; force bypasses the
// interval pacing (flushes, shutdown). The returned error is also sticky.
func (s *System) syncWAL(force bool) error {
	if s.wal == nil || s.walErr != nil {
		return s.walErr
	}
	switch s.cfg.Durability.Fsync {
	case wal.SyncOff:
		if !force {
			return nil
		}
	case wal.SyncInterval:
		if !force && time.Since(s.lastSync) < s.cfg.Durability.fsyncInterval() {
			return nil
		}
	}
	fstart := time.Now()
	err := retryTransient(s.cfg.Durability.Retry, s.tel, s.curTrace, s.shardID,
		s.streamID^s.walSeq, nil, s.wal.Sync)
	if err != nil {
		s.failWAL(err)
		return s.walErr
	}
	s.shardTel.walFsync.Observe(time.Since(fstart).Seconds())
	s.curTrace.Since("wal-fsync", s.shardID, fstart)
	s.lastSync = time.Now()
	s.tel.walSyncs.Inc()
	return nil
}

func (s *System) failWAL(err error) {
	if s.walErr == nil {
		s.walErr = fmt.Errorf("engine: WAL failed, ingestion stopped: %w", err)
		s.tel.walErrors.Inc()
		log.Printf("%v", s.walErr)
	}
}

// maybeSnapshot writes a snapshot when enough seconds accumulated since the
// last one.
func (s *System) maybeSnapshot() {
	if s.wal == nil || s.walErr != nil {
		return
	}
	if n := s.cfg.Durability.SnapshotEvery; n > 0 && s.sinceSnap >= n {
		s.writeSnapshot()
	}
}

// writeSnapshot captures the engine state covering every record up to
// walSeq, then prunes snapshots and the segments only they needed. Failures
// are logged and counted but not sticky: the WAL still has everything, so
// recovery just replays more.
func (s *System) writeSnapshot() {
	hits, misses := s.cache.Stats()
	wm, started := s.reorder.Watermark()
	ms, _ := s.reorder.MaxSeen()
	snap := engineSnap{
		Stats:          s.stats,
		Collector:      s.col.Snapshot(),
		CacheEntries:   s.cache.Dump(),
		CacheHits:      hits,
		CacheMisses:    misses,
		Events:         s.eventLog,
		EventOff:       s.eventOff,
		ReorderStarted: started,
		Watermark:      wm,
		MaxSeen:        ms,
		Drops:          s.reorder.Drops(),
		Forced:         s.reorder.ForcedFlushes(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		s.snapFailed(fmt.Errorf("engine: encode snapshot: %w", err))
		return
	}
	// An unsynced tail record would let a surviving snapshot claim coverage
	// of a second the log lost; sync first so the claim is always true.
	if err := s.syncWAL(true); err != nil {
		return
	}
	d := s.cfg.Durability
	_, err := wal.WriteSnapshotFS(d.fsys(), d.Dir, s.streamID, s.walSeq, buf.Bytes())
	if err != nil {
		s.snapFailed(fmt.Errorf("engine: write snapshot: %w", err))
		return
	}
	s.sinceSnap = 0
	s.snapFails = 0
	s.tel.walSnapshots.Inc()
	oldest, _, err := wal.PruneSnapshotsFS(d.fsys(), d.Dir, d.keepSnapshots())
	if err != nil {
		log.Printf("engine: prune snapshots: %v", err)
		return
	}
	if _, err := s.wal.PruneSegments(oldest); err != nil {
		log.Printf("engine: prune segments: %v", err)
	}
}

// snapFailed counts one failed snapshot attempt and paces retries: the next
// few flushed seconds retry immediately (sinceSnap stays over the threshold),
// then the schedule backs off a full SnapshotEvery window so a persistently
// broken snapshot store doesn't turn every flush into a doomed write. The WAL
// still has everything, so nothing is sticky — recovery just replays more.
func (s *System) snapFailed(err error) {
	s.tel.walSnapshotErrors.Inc()
	s.tel.snapshotFailures.Inc()
	s.snapFails++
	if s.snapFails >= snapFailBackoff {
		s.sinceSnap = 0
		s.snapFails = 0
	}
	log.Printf("%v", err)
}

// restoreSnap replaces the engine's mutable state with the snapshot's.
func (s *System) restoreSnap(snap *engineSnap) {
	s.stats = snap.Stats
	s.col.Restore(snap.Collector)
	s.cache.RestoreEntries(snap.CacheEntries)
	s.cache.RestoreStats(snap.CacheHits, snap.CacheMisses)
	s.eventLog = snap.Events
	s.eventOff = snap.EventOff
}

// Close shuts the durability layer down cleanly: buffered seconds are
// flushed (and logged), a final snapshot written, and the WAL fsynced and
// closed. Close is a no-op for systems built with New. The System must not
// be used after Close.
func (s *System) Close() error {
	if s.wal == nil {
		return nil
	}
	s.reorder.FlushAll()
	if s.walErr == nil {
		s.writeSnapshot()
	}
	syncErr := s.syncWAL(true)
	closeErr := s.wal.Close()
	s.wal = nil
	if s.walErr != nil && syncErr == nil {
		syncErr = s.walErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
