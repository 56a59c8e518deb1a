package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ingest"
	"repro/internal/model"
)

// collect opens the log and gathers every replayed record.
func collect(t *testing.T, dir string, opts Options) (*Log, OpenReport, []Rec) {
	t.Helper()
	var recs []Rec
	l, rep, err := Open(dir, opts, func(seq uint64, payload []byte) error {
		recs = append(recs, Rec{Seq: seq, Payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rep, recs
}

func TestAppendReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StreamID: 42}
	l, rep, _ := collect(t, dir, opts)
	if rep.Records != 0 || rep.Segments != 0 {
		t.Fatalf("fresh dir: unexpected report %+v", rep)
	}
	var want []Rec
	for seq := uint64(1); seq <= 25; seq++ {
		payload := []byte(fmt.Sprintf("record-%d", seq))
		if err := l.Append(seq, payload); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
		want = append(want, Rec{Seq: seq, Payload: payload})
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rep2, got := collect(t, dir, opts)
	defer l2.Close()
	if rep2.Records != 25 || rep2.LastSeq != 25 || rep2.Corrupt || rep2.TruncatedBytes != 0 {
		t.Fatalf("reopen report %+v", rep2)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got (%d, %q), want (%d, %q)", i, got[i].Seq, got[i].Payload, want[i].Seq, want[i].Payload)
		}
	}
	// Appends continue after the recovered tail.
	if err := l2.Append(25, []byte("x")); err == nil {
		t.Fatal("Append with stale seq succeeded")
	}
	if err := l2.Append(26, []byte("x")); err != nil {
		t.Fatalf("Append(26): %v", err)
	}
}

func TestRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StreamID: 1, SegmentBytes: 128}
	l, _, _ := collect(t, dir, opts)
	payload := bytes.Repeat([]byte("p"), 40) // 56 bytes per record with framing
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(seq, payload); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", l.Segments())
	}
	segsBefore := l.Segments()
	// Pruning up to seq 5 must keep every record >= 6 replayable.
	if _, err := l.PruneSegments(5); err != nil {
		t.Fatalf("PruneSegments: %v", err)
	}
	if l.Segments() >= segsBefore {
		t.Fatalf("prune removed nothing (%d segments)", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rep, recs := collect(t, dir, opts)
	defer l2.Close()
	if rep.LastSeq != 10 {
		t.Fatalf("after prune, LastSeq = %d, want 10", rep.LastSeq)
	}
	for _, r := range recs {
		if r.Seq > 5 {
			return // records past the prune bound survived
		}
	}
	t.Fatal("no record past the prune bound survived")
}

// TestCrashAtEveryOffset is the framing-level crash property: truncating the
// log at ANY byte offset must recover exactly the records whose bytes fully
// survive, without error or panic, and leave the log appendable.
func TestCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StreamID: 7}
	l, _, _ := collect(t, dir, opts)
	type mark struct {
		end  int64
		recs int
	}
	var marks []mark
	var end int64 = segHeaderSize
	for seq := uint64(1); seq <= 12; seq++ {
		payload := bytes.Repeat([]byte{byte(seq)}, int(seq)*3)
		if err := l.Append(seq, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
		end += recHeaderSize + int64(len(payload))
		marks = append(marks, mark{end: end, recs: int(seq)})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := SegmentInfos(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want a single segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if int64(len(full)) != end {
		t.Fatalf("segment size %d, expected %d", len(full), end)
	}

	for off := int64(0); off <= int64(len(full)); off++ {
		wantRecs := 0
		for _, m := range marks {
			if m.end <= off {
				wantRecs = m.recs
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(segs[0].Path)), full[:off], 0o644); err != nil {
			t.Fatalf("write truncated copy: %v", err)
		}
		got := 0
		var lastSeq uint64
		l2, rep, err := Open(cdir, opts, func(seq uint64, payload []byte) error {
			got++
			lastSeq = seq
			return nil
		})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		if got != wantRecs || rep.Records != wantRecs {
			t.Fatalf("offset %d: recovered %d records (report %d), want %d", off, got, rep.Records, wantRecs)
		}
		if wantRecs > 0 && lastSeq != uint64(wantRecs) {
			t.Fatalf("offset %d: last seq %d, want %d", off, lastSeq, wantRecs)
		}
		// The log must accept appends from the recovered position.
		if err := l2.Append(uint64(wantRecs)+1, []byte("post-crash")); err != nil {
			t.Fatalf("offset %d: post-recovery append: %v", off, err)
		}
		l2.Close()
	}
}

func TestCorruptionMidSegmentTruncates(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StreamID: 3}
	l, _, _ := collect(t, dir, opts)
	for seq := uint64(1); seq <= 8; seq++ {
		if err := l.Append(seq, bytes.Repeat([]byte("d"), 32)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := SegmentInfos(dir)
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of record 4 (records are 48 bytes each).
	off := segHeaderSize + 3*48 + recHeaderSize + 5
	data[off] ^= 0xff
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rep, recs := collect(t, dir, opts)
	defer l2.Close()
	if len(recs) != 3 || rep.Records != 3 || rep.LastSeq != 3 {
		t.Fatalf("recovered %d records (report %+v), want 3", len(recs), rep)
	}
	if !rep.Corrupt || rep.TruncatedBytes == 0 {
		t.Fatalf("corruption not reported: %+v", rep)
	}
	// The repair is persistent: a second open sees a clean 3-record log.
	l2.Close()
	l3, rep3, _ := collect(t, dir, opts)
	defer l3.Close()
	if rep3.Records != 3 || rep3.Corrupt || rep3.TruncatedBytes != 0 {
		t.Fatalf("repair not persistent: %+v", rep3)
	}
}

func TestCorruptionOrphansLaterSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StreamID: 3, SegmentBytes: 100}
	l, _, _ := collect(t, dir, opts)
	for seq := uint64(1); seq <= 6; seq++ {
		if err := l.Append(seq, bytes.Repeat([]byte("d"), 40)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := SegmentInfos(dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Corrupt the FIRST segment's first record: everything after is
	// unreachable and must be removed, leaving a clean empty log tail.
	data, _ := os.ReadFile(segs[0].Path)
	data[segHeaderSize+recHeaderSize] ^= 0xff
	os.WriteFile(segs[0].Path, data, 0o644)

	l2, rep, recs := collect(t, dir, opts)
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("recovered %d records, want 0", len(recs))
	}
	if rep.RemovedSegments != len(segs)-1 {
		t.Fatalf("removed %d orphaned segments, want %d", rep.RemovedSegments, len(segs)-1)
	}
	if !rep.Corrupt {
		t.Fatalf("corruption not flagged: %+v", rep)
	}
}

func TestStreamMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir, Options{StreamID: 1})
	if err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, _, err := Open(dir, Options{StreamID: 2}, func(seq uint64, payload []byte) error {
		t.Fatal("record of a foreign stream was replayed")
		return nil
	})
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("Open returned %v, want *MismatchError", err)
	}
	if me.Want != 2 || me.Got != 1 {
		t.Fatalf("mismatch detail %+v", me)
	}
}

func TestSnapshotStore(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("snap"), 100)
	if _, err := WriteSnapshot(dir, 9, 100, payload); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if _, err := WriteSnapshot(dir, 9, 200, []byte("newer")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snaps, err := ListSnapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("ListSnapshots: %d snapshots, err=%v", len(snaps), err)
	}
	seq, got, err := ReadSnapshotFile(snaps[1].Path, 9)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if seq != 200 || string(got) != "newer" {
		t.Fatalf("got (%d, %q)", seq, got)
	}

	// A stream mismatch is a typed error, not a corrupt file.
	_, _, err = ReadSnapshotFile(snaps[0].Path, 8)
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("mismatched stream returned %v, want *MismatchError", err)
	}

	// A corrupt payload fails its CRC.
	data, _ := os.ReadFile(snaps[1].Path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(snaps[1].Path, data, 0o644)
	if _, _, err := ReadSnapshotFile(snaps[1].Path, 9); err == nil || errors.As(err, &me) {
		t.Fatalf("corrupt snapshot returned %v, want a CRC error", err)
	}
	seq, got, err = ReadSnapshotFile(snaps[0].Path, 9)
	if err != nil || seq != 100 || !bytes.Equal(got, payload) {
		t.Fatalf("older snapshot: (%d, %d bytes) err=%v", seq, len(got), err)
	}

	// Prune keeps the newest and reports the safe segment bound.
	if _, err := WriteSnapshot(dir, 9, 300, []byte("third")); err != nil {
		t.Fatal(err)
	}
	oldest, removed, err := PruneSnapshots(dir, 2)
	if err != nil {
		t.Fatalf("PruneSnapshots: %v", err)
	}
	if removed != 1 || oldest != 200 {
		t.Fatalf("prune removed=%d oldest=%d", removed, oldest)
	}
}

func TestBatchCodecRoundtrip(t *testing.T) {
	b := Batch{
		Time:    77,
		MaxSeen: 81,
		Forced:  3,
		Drops: ingest.Drops{
			LateBatches: 1, LateReadings: 2, DuplicateDeliveries: 3, DuplicateReadings: 4,
			MisstampedReadings: 5, InvalidReadings: 6, GapSeconds: 7,
		},
		Readings: []model.RawReading{
			{Object: 1, Reader: 2, Time: 77},
			{Object: 9, Reader: model.NoReader, Time: 77},
		},
	}
	enc := b.Encode(nil)
	if len(enc) != b.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), b.EncodedSize())
	}
	got, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("roundtrip mismatch:\n  in  %+v\n  out %+v", b, got)
	}
	// Empty readings stay nil-safe.
	empty := Batch{Time: 1, MaxSeen: 1}
	got, err = DecodeBatch(empty.Encode(nil))
	if err != nil || len(got.Readings) != 0 {
		t.Fatalf("empty batch roundtrip: %v %+v", err, got)
	}
	if _, err := DecodeBatch([]byte{recBatch, 1, 2}); err == nil {
		t.Fatal("short batch decoded without error")
	}
	if _, err := DecodeBatch([]byte{99}); err == nil {
		t.Fatal("unknown record type decoded without error")
	}
}

func TestSyncPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy parsed without error")
	}
}

// TestTruncateTo drops a ragged tail at every possible cut point of a
// multi-segment log and verifies the surviving prefix replays exactly, the
// reported byte count matches the on-disk shrinkage, and the log stays
// appendable from the cut.
func TestTruncateTo(t *testing.T) {
	const n = 10
	payload := bytes.Repeat([]byte("p"), 40)
	for cut := uint64(0); cut <= n; cut++ {
		dir := t.TempDir()
		opts := Options{StreamID: 9, SegmentBytes: 128}
		l, _, _ := collect(t, dir, opts)
		for seq := uint64(1); seq <= n; seq++ {
			if err := l.Append(seq, payload); err != nil {
				t.Fatalf("Append(%d): %v", seq, err)
			}
		}
		sizeBefore := dirBytes(t, dir)
		removed, err := l.TruncateTo(cut)
		if err != nil {
			t.Fatalf("TruncateTo(%d): %v", cut, err)
		}
		if got := l.LastSeq(); got != cut {
			t.Fatalf("TruncateTo(%d): LastSeq = %d", cut, got)
		}
		if want := sizeBefore - dirBytes(t, dir); removed != want {
			t.Fatalf("TruncateTo(%d): reported %d bytes removed, disk shrank by %d", cut, removed, want)
		}
		if cut < n && removed <= 0 {
			t.Fatalf("TruncateTo(%d): removed %d bytes, want > 0", cut, removed)
		}
		// The log must accept the next sequence straight away...
		if err := l.Append(cut+1, []byte("resume")); err != nil {
			t.Fatalf("Append(%d) after truncate: %v", cut+1, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// ...and a reopen must see the prefix plus the resumed record.
		l2, rep, recs := collect(t, dir, opts)
		if rep.Corrupt {
			t.Fatalf("cut=%d: reopen reports corruption: %+v", cut, rep)
		}
		if rep.LastSeq != cut+1 {
			t.Fatalf("cut=%d: reopen LastSeq = %d, want %d", cut, rep.LastSeq, cut+1)
		}
		for i, r := range recs {
			if r.Seq != uint64(i)+1 {
				t.Fatalf("cut=%d: record %d has seq %d", cut, i, r.Seq)
			}
			want := payload
			if r.Seq == cut+1 {
				want = []byte("resume")
			}
			if !bytes.Equal(r.Payload, want) {
				t.Fatalf("cut=%d: record seq %d payload %q", cut, r.Seq, r.Payload)
			}
		}
		if len(recs) != int(cut)+1 {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(recs), cut+1)
		}
		l2.Close()
	}
}

// TestTruncateToNoop verifies TruncateTo at or past the tail changes nothing.
func TestTruncateToNoop(t *testing.T) {
	dir := t.TempDir()
	opts := Options{StreamID: 9}
	l, _, _ := collect(t, dir, opts)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(seq, []byte("x")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for _, cut := range []uint64{3, 4, 100} {
		removed, err := l.TruncateTo(cut)
		if err != nil || removed != 0 {
			t.Fatalf("TruncateTo(%d) = (%d, %v), want no-op", cut, removed, err)
		}
	}
	if l.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d after no-op truncations", l.LastSeq())
	}
	l.Close()
}

// dirBytes sums the size of every file under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatalf("Info: %v", err)
		}
		total += info.Size()
	}
	return total
}
