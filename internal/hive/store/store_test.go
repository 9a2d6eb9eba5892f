package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// rec builds a small JSON record with a distinguishing sequence number.
func rec(n int) []byte {
	return []byte(fmt.Sprintf(`{"seq":%d}`, n))
}

// collect recovers a store and returns the snapshot blob (nil if none)
// and the replayed records in order.
func collect(t *testing.T, s Store) ([]byte, [][]byte) {
	t.Helper()
	var snap []byte
	var recs [][]byte
	err := s.Recover(
		func(state []byte) error { snap = append([]byte(nil), state...); return nil },
		func(r []byte) error { recs = append(recs, append([]byte(nil), r...)); return nil },
	)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return snap, recs
}

func seqs(recs [][]byte) []int {
	out := make([]int, len(recs))
	for i, r := range recs {
		var v struct{ Seq int }
		if err := json.Unmarshal(r, &v); err != nil {
			panic(err)
		}
		out[i] = v.Seq
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// open opens the engine on dir and fails the test on error.
func open(t *testing.T, dir string, cfg SegmentedConfig) *Segmented {
	t.Helper()
	s, err := OpenSegmented(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJournalEngineRoundTrip: records appended in one life replay in
// order in the next — and a journal of the retired single-file engine,
// which is byte-identical to a segment, is adopted by moving it into a
// directory as segment 0, exactly as the refusal of a regular file at the
// store path says.
func TestJournalEngineRoundTrip(t *testing.T) {
	root := t.TempDir()
	journal := filepath.Join(root, "hive.journal")
	if err := os.WriteFile(journal, append(rec(1), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSegmented(journal, SegmentedConfig{})
	if !errors.Is(err, ErrIO) || !strings.Contains(err.Error(), "mkdir d && mv "+journal+" d/seg-00000000.log") {
		t.Fatalf("regular file at the store path: err = %v, want ErrIO carrying the adoption recipe", err)
	}
	dir := filepath.Join(root, "d")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(journal, filepath.Join(dir, "seg-00000000.log")); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir, SegmentedConfig{})
	if _, recs := collect(t, s); !equalInts(seqs(recs), []int{1}) {
		t.Fatalf("adopted journal replayed %v, want [1]", seqs(recs))
	}
	if err := s.AppendMeta([][]byte{rec(2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(0, [][]byte{rec(3), rec(4)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, SegmentedConfig{})
	defer s2.Close()
	snap, recs := collect(t, s2)
	if got := seqs(recs); snap != nil || !equalInts(got, []int{1, 2, 3, 4}) {
		t.Errorf("replayed %v (snapshot %q), want [1 2 3 4] and no snapshot", got, snap)
	}
	// Same layout, same file: a restart at one shard adds nothing to the
	// directory.
	if st := s2.Stats(); st.Shards != 1 || st.Segments != 1 || st.ReplayRecords != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAppendBeforeRecoverFails: the lifecycle is construct → Recover →
// append → Close; an append outside it is an ErrIO, not a panic.
func TestAppendBeforeRecoverFails(t *testing.T) {
	s := open(t, t.TempDir(), SegmentedConfig{Shards: 2})
	if err := s.AppendMeta([][]byte{rec(1)}); !errors.Is(err, ErrIO) {
		t.Errorf("append before recover: %v, want ErrIO", err)
	}
	if err := s.WriteSnapshot([]byte(`{}`)); !errors.Is(err, ErrIO) {
		t.Errorf("snapshot before recover: %v, want ErrIO", err)
	}
	collect(t, s)
	if err := s.AppendBatch(2, [][]byte{rec(1)}); !errors.Is(err, ErrIO) {
		t.Errorf("append to shard 2 of 2: %v, want ErrIO", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(1, [][]byte{rec(1)}); !errors.Is(err, ErrIO) {
		t.Errorf("append after close: %v, want ErrIO", err)
	}
}

// TestCloseReleasesFdWhenSyncFails: Close must close the descriptor even
// when the final fsync fails (fsync on a pipe fails with EINVAL). The
// reader observing EOF proves the write end was actually closed — the
// historical bug leaked it.
func TestCloseReleasesFdWhenSyncFails(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	lf := &logFile{path: "pipe", syncEvery: 1}
	lf.f = w
	if err := lf.close(); !errors.Is(err, ErrIO) {
		t.Errorf("close with failing sync: err = %v, want ErrIO", err)
	}
	// EOF on the read end proves the write end is closed, not leaked.
	buf := make([]byte, 1)
	if n, err := r.Read(buf); err == nil || n != 0 {
		t.Errorf("pipe read after close: n=%d err=%v, want EOF", n, err)
	}
	// Idempotent: a second close is a clean no-op.
	if err := lf.close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestTornTailTruncation: a partial final record — at every byte offset —
// is dropped and physically truncated; complete records survive.
func TestTornTailTruncation(t *testing.T) {
	complete := append(append(rec(1), '\n'), append(rec(2), '\n')...)
	last := append(rec(3), '\n')

	for cut := 0; cut < len(last); cut++ {
		path := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(path, append(append([]byte(nil), complete...), last[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		var got []int
		n, size, err := replayFile(path, true, func(r []byte) error {
			got = append(got, seqs([][]byte{r})[0])
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !equalInts(got, []int{1, 2}) || n != 2 {
			t.Errorf("cut=%d: replayed %v (n=%d), want [1 2]", cut, got, n)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(complete)) || size != int64(len(complete)) {
			t.Errorf("cut=%d: file size %d (reported %d), want %d (torn bytes truncated)",
				cut, fi.Size(), size, len(complete))
		}
	}

	// Strict mode refuses the same tear.
	path := filepath.Join(t.TempDir(), "sealed.log")
	if err := os.WriteFile(path, append(append([]byte(nil), complete...), last[:3]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayFile(path, false, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("strict replay of torn file: %v, want ErrCorrupt", err)
	}

	// Valid record AFTER invalid bytes is corruption in both modes.
	path = filepath.Join(t.TempDir(), "corrupt.log")
	if err := os.WriteFile(path, []byte("garbage\n"+string(rec(9))+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayFile(path, true, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tolerant replay of mid-file corruption: %v, want ErrCorrupt", err)
	}
}

// TestSegmentedRotationAndFold: the tail rotates at the size threshold,
// SnapshotDue arms after SnapshotEvery sealed segments, and a fold
// retires every covered segment, leaving snapshot + fresh tail.
func TestSegmentedRotationAndFold(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, SegmentedConfig{SegmentBytes: 32, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, s)

	// Each record is ~10 bytes; 32-byte segments seal after a few.
	n := 0
	var written int64
	for !s.SnapshotDue() {
		n++
		if n > 1000 {
			t.Fatal("snapshot never became due")
		}
		if err := s.AppendBatch(0, [][]byte{rec(n)}); err != nil {
			t.Fatal(err)
		}
		written += int64(len(rec(n))) + 1
	}
	if segs := s.Stats().Segments; segs < 3 {
		t.Errorf("segments before fold = %d, want >= 3", segs)
	}
	// LogBytes is the restart-replay volume: sealed segments count, not
	// just the current tail.
	if got := s.Stats().LogBytes; got != written {
		t.Errorf("pre-fold LogBytes = %d, want %d (all live segments)", got, written)
	}

	state := []byte(`{"upTo":` + fmt.Sprint(n) + `}`)
	if err := s.WriteSnapshot(state); err != nil {
		t.Fatal(err)
	}
	if s.SnapshotDue() {
		t.Error("SnapshotDue still set after a successful fold")
	}
	st := s.Stats()
	if st.Snapshots != 1 || st.Segments != 1 || st.LogBytes != 0 {
		t.Errorf("post-fold stats = %+v", st)
	}

	// Appends continue on the fresh tail; recovery = snapshot + tail.
	if err := s.AppendBatch(0, [][]byte{rec(n + 1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmented(dir, SegmentedConfig{SegmentBytes: 32, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, recs := collect(t, s2)
	if string(snap) != string(state) {
		t.Errorf("recovered snapshot = %q, want %q", snap, state)
	}
	if got := seqs(recs); !equalInts(got, []int{n + 1}) {
		t.Errorf("tail replay = %v, want [%d] (history is in the snapshot)", got, n+1)
	}
}

// TestSegmentedRecoverPrunesCoveredSegments: a crash between publishing
// a snapshot and deleting the segments it covers must not double-apply —
// recovery skips and removes segments at or below the snapshot watermark.
func TestSegmentedRecoverPrunesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	// Simulate the crash window by hand: a snapshot covering segment 3,
	// a stale covered segment 2, a live segment 4, and fold leftovers.
	if err := os.WriteFile(filepath.Join(dir, snapName(3)), []byte(`{"s":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), []byte(`{"stale":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2, 0)), append(rec(2), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(4, 0)), append(rec(4), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(9)+tmpSuffix), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenSegmented(dir, SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, recs := collect(t, s)
	if string(snap) != `{"s":1}` {
		t.Errorf("snapshot = %q, want the newest one", snap)
	}
	if got := seqs(recs); !equalInts(got, []int{4}) {
		t.Errorf("replay = %v, want [4] (covered segment must not replay)", got)
	}
	for _, stale := range []string{segName(2, 0), snapName(1), snapName(9) + tmpSuffix} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s still present after recovery", stale)
		}
	}
}

// TestSegmentedFoldFailStopAfterPublish: if the fold fails AFTER the
// snapshot rename published it (directory sync error), the engine must
// stop accepting appends — the published snapshot claims to cover the
// current tail, so anything appended there would be pruned by the next
// Recover. Fail-stop plus recovery must lose nothing.
func TestSegmentedFoldFailStopAfterPublish(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, SegmentedConfig{SegmentBytes: 32, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, s)
	n := 0
	for !s.SnapshotDue() {
		n++
		if n > 1000 {
			t.Fatal("snapshot never became due")
		}
		if err := s.AppendBatch(0, [][]byte{rec(n)}); err != nil {
			t.Fatal(err)
		}
	}

	restore := failNthDirSync(1)
	state := []byte(`{"upTo":` + fmt.Sprint(n) + `}`)
	err = s.WriteSnapshot(state)
	restore()
	if err == nil {
		t.Fatal("WriteSnapshot succeeded despite directory sync failure")
	}
	if st := s.Stats(); st.SnapshotFailures != 1 {
		t.Errorf("snapshot failures = %d, want 1", st.SnapshotFailures)
	}
	if err := s.AppendBatch(0, [][]byte{rec(n + 1)}); err == nil {
		t.Fatal("append accepted after a failed fold published a covering snapshot")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery resolves the interrupted fold: the published snapshot wins,
	// covered segments are pruned unreplayed, and appends work again.
	s2, err := OpenSegmented(dir, SegmentedConfig{SegmentBytes: 32, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, recs := collect(t, s2)
	if string(snap) != string(state) {
		t.Errorf("recovered snapshot = %q, want %q", snap, state)
	}
	if len(recs) != 0 {
		t.Errorf("replayed %d records, want 0 (all history is in the snapshot)", len(recs))
	}
	if err := s2.AppendBatch(0, [][]byte{rec(n + 2)}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestShardedIndependentCommits: uploads for tasks on different shards
// land in different files with separate fsync counters — the
// no-serialisation proof — control-plane records commit on shard 0, and
// everything replays together.
func TestShardedIndependentCommits(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, SegmentedConfig{Shards: 4})
	collect(t, s)

	// Find two keys on distinct data shards away from shard 0.
	var keys []string
	for i := 0; len(keys) < 2; i++ {
		k := fmt.Sprintf("task-%d", i)
		if si := s.ShardFor(k); si != 0 && (len(keys) == 0 || si != s.ShardFor(keys[0])) {
			keys = append(keys, k)
		}
	}
	sa, sb := s.ShardFor(keys[0]), s.ShardFor(keys[1])

	if err := s.AppendMeta([][]byte{rec(1)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendBatch(sa, [][]byte{rec(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendBatch(sb, [][]byte{rec(20)}); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	want := make([]uint64, 4)
	want[0], want[sa], want[sb] = 1, 3, 1
	if fmt.Sprint(st.ShardSyncs) != fmt.Sprint(want) || st.Syncs != 5 {
		t.Errorf("shard syncs = %v (total %d), want %v (total 5)", st.ShardSyncs, st.Syncs, want)
	}
	for _, name := range []string{segName(0, 0), segName(sa, sa), segName(sb, sb)} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty tail per touched shard", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, SegmentedConfig{Shards: 4})
	defer s2.Close()
	if _, recs := collect(t, s2); len(recs) != 5 {
		t.Errorf("replayed %d records, want 5", len(recs))
	}
}

// keyed is a record that names the task key it was appended for.
type keyed struct {
	Seq int    `json:"seq"`
	Key string `json:"key"`
}

// TestShardCountChangeKeepsTaskOrder: a task's records replay in arrival
// order after any sequence of shard-count changes — shrink, grow (8→12
// moves task-4 from shard 5 down to shard 1, the case that inverted under
// the retired sharded engine), both without a fold in between, and with
// one — and stray files such as seg-00000003.log.bak never replay.
func TestShardCountChangeKeepsTaskOrder(t *testing.T) {
	type life struct {
		shards int
		fold   bool // fold once, halfway through the life
	}
	cases := []struct {
		name  string
		lives []life
	}{
		{"shrink 4 to 2", []life{{shards: 4}, {shards: 2}}},
		{"grow 8 to 12", []life{{shards: 8}, {shards: 12}}},
		{"3 to 5 to 2 without a fold", []life{{shards: 3}, {shards: 5}, {shards: 2}}},
		{"fold between changes", []life{{shards: 8, fold: true}, {shards: 12}, {shards: 12, fold: true}, {shards: 1}, {shards: 4}}},
		{"same count across restarts", []life{{shards: 4}, {shards: 4}, {shards: 4}}},
	}
	const keys, perLife = 16, 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "seg-00000003.log.bak"), []byte(`{"seq":-1,"key":"stray"}`+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			var all []keyed // every acknowledged record, in arrival order

			// check recovers s and compares what it streams — the snapshot's
			// records, then the log's — with all, task by task.
			check := func(s *Segmented, when string) {
				t.Helper()
				snap, recs := collect(t, s)
				var got []keyed
				if snap != nil {
					if err := json.Unmarshal(snap, &got); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range recs {
					var k keyed
					if err := json.Unmarshal(r, &k); err != nil {
						t.Fatal(err)
					}
					got = append(got, k)
				}
				perKey := func(rs []keyed) map[string][]int {
					m := make(map[string][]int)
					for _, r := range rs {
						m[r.Key] = append(m[r.Key], r.Seq)
					}
					return m
				}
				gotBy, wantBy := perKey(got), perKey(all)
				if len(got) != len(all) || len(gotBy) != len(wantBy) {
					t.Fatalf("%s: recovered %d records of %d keys, want %d of %d", when, len(got), len(gotBy), len(all), len(wantBy))
				}
				for key, want := range wantBy {
					if !equalInts(gotBy[key], want) {
						t.Errorf("%s: %s replayed %v, want arrival order %v", when, key, gotBy[key], want)
					}
				}
			}

			for li, l := range tc.lives {
				// Tiny segments: every shard rotates several times a life.
				s := open(t, dir, SegmentedConfig{Shards: l.shards, SegmentBytes: 64, SnapshotEvery: 1 << 20})
				check(s, fmt.Sprintf("life %d (%d shards)", li, l.shards))
				for round := 0; round < perLife; round++ {
					for k := 0; k < keys; k++ {
						r := keyed{Seq: len(all), Key: fmt.Sprintf("task-%d", k)}
						line, _ := json.Marshal(r)
						if err := s.AppendBatch(s.ShardFor(r.Key), [][]byte{line}); err != nil {
							t.Fatal(err)
						}
						all = append(all, r)
					}
					if l.fold && round == perLife/2 {
						state, _ := json.Marshal(all)
						if err := s.WriteSnapshot(state); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			last := tc.lives[len(tc.lives)-1].shards
			s := open(t, dir, SegmentedConfig{Shards: last})
			check(s, "final recovery")
			// Segments of shards beyond the configured count were replayed;
			// the next fold retires them with everything else.
			state, _ := json.Marshal(all)
			if err := s.WriteSnapshot(state); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Segments != last || st.LogBytes != 0 {
				t.Errorf("after the fold: %d segments, %d log bytes; want %d empty tails", st.Segments, st.LogBytes, last)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != last+2 { // tails + snapshot + the stray file
				t.Errorf("directory holds %d files after the fold, want %d", len(entries), last+2)
			}
		})
	}
}

// failNthDirSync makes the n-th directory sync from now on (1-based) fail,
// and every later one, until the returned restore function runs.
func failNthDirSync(n int) (restore func()) {
	calls := 0
	syncDirHook = func(dir string) error {
		if calls++; calls >= n {
			return fmt.Errorf("%w: injected dir sync failure", ErrIO)
		}
		return syncDir(dir)
	}
	return func() { syncDirHook = syncDir }
}

// TestFreshSegmentDirentSynced: a freshly created tail gets its directory
// entry synced before any append to it is acknowledged. Failing that sync
// at each of the three places a tail is created — first open, rotation,
// after a fold — the append answers ErrIO, nothing further is
// acknowledged, and a re-opened store recovers every record that was.
func TestFreshSegmentDirentSynced(t *testing.T) {
	cfg := SegmentedConfig{SegmentBytes: 32, SnapshotEvery: 2}
	reopen := func(t *testing.T, dir string, wantSnap string, acked []int) {
		t.Helper()
		s := open(t, dir, cfg)
		defer s.Close()
		snap, recs := collect(t, s)
		if string(snap) != wantSnap {
			t.Errorf("recovered snapshot %q, want %q", snap, wantSnap)
		}
		// Unacknowledged records may replay (the failure edge is
		// at-least-once); acknowledged ones must, first and in order.
		if got := seqs(recs); len(got) < len(acked) || !equalInts(got[:len(acked)], acked) {
			t.Errorf("recovered %v, want every acknowledged record %v", got, acked)
		}
		if err := s.AppendBatch(0, [][]byte{rec(1000)}); err != nil {
			t.Errorf("append after recovery: %v", err)
		}
	}

	t.Run("first open", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir, cfg)
		restore := failNthDirSync(1)
		err := s.Recover(func([]byte) error { return nil }, func([]byte) error { return nil })
		restore()
		if !errors.Is(err, ErrIO) {
			t.Fatalf("recover with an unsynced first tail: %v, want ErrIO", err)
		}
		if err := s.AppendBatch(0, [][]byte{rec(1)}); !errors.Is(err, ErrIO) {
			t.Errorf("append to a tail whose dirent is not durable: %v, want ErrIO", err)
		}
		s.Close()
		reopen(t, dir, "", nil)
	})

	t.Run("rotation", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir, cfg)
		collect(t, s)
		defer failNthDirSync(1)()
		var acked []int
		for n := 1; ; n++ {
			if n > 100 {
				t.Fatal("the tail never rotated")
			}
			err := s.AppendBatch(0, [][]byte{rec(n)})
			if err == nil {
				acked = append(acked, n)
				continue
			}
			if !errors.Is(err, ErrIO) {
				t.Fatalf("rotating append: %v, want ErrIO", err)
			}
			break
		}
		if len(acked) == 0 {
			t.Fatal("nothing was acknowledged before the rotation")
		}
		if err := s.AppendBatch(0, [][]byte{rec(500)}); !errors.Is(err, ErrIO) {
			t.Errorf("append after the failed rotation: %v, want ErrIO (fail-stop)", err)
		}
		s.Close()
		syncDirHook = syncDir
		reopen(t, dir, "", acked)
	})

	t.Run("post-fold tail", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir, cfg)
		collect(t, s)
		for n := 1; !s.SnapshotDue(); n++ {
			if err := s.AppendBatch(0, [][]byte{rec(n)}); err != nil {
				t.Fatal(err)
			}
		}
		// The fold's first directory sync publishes the snapshot; the
		// second makes the fresh tail durable.
		restore := failNthDirSync(2)
		err := s.WriteSnapshot([]byte(`{"folded":true}`))
		restore()
		if !errors.Is(err, ErrIO) {
			t.Fatalf("fold with an unsynced fresh tail: %v, want ErrIO", err)
		}
		if st := s.Stats(); st.SnapshotFailures != 1 {
			t.Errorf("snapshot failures = %d, want 1", st.SnapshotFailures)
		}
		if err := s.AppendBatch(0, [][]byte{rec(500)}); !errors.Is(err, ErrIO) {
			t.Errorf("append after the failed fold: %v, want ErrIO (fail-stop)", err)
		}
		s.Close()
		reopen(t, dir, `{"folded":true}`, nil)
	})
}

// TestAdoptShardedDirectory: a directory of the retired sharded engine
// (meta.log + shard-NN.log) is converted once, crash-safely, at Recover.
func TestAdoptShardedDirectory(t *testing.T) {
	write := func(t *testing.T, dir, name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	line := func(ns ...int) string {
		var b strings.Builder
		for _, n := range ns {
			b.Write(rec(n))
			b.WriteByte('\n')
		}
		return b.String()
	}
	legacy := func(t *testing.T) string {
		dir := t.TempDir()
		write(t, dir, "meta.log", line(1, 2))
		write(t, dir, "shard-00.log", line(10, 11))
		write(t, dir, "shard-01.log", line(20)+`{"seq":2`) // torn final append
		write(t, dir, "shard-03.log", line(30))            // orphan of a larger shard count: older, so first
		write(t, dir, "shard-01.log.bak", line(99))
		return dir
	}
	gone := func(t *testing.T, dir string) {
		t.Helper()
		for _, name := range []string{"meta.log", "shard-00.log", "shard-01.log", "shard-03.log"} {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s still present after adoption", name)
			}
		}
	}

	t.Run("adopts", func(t *testing.T) {
		dir := legacy(t)
		for _, shards := range []int{2, 2} { // the second recovery finds a native directory
			s := open(t, dir, SegmentedConfig{Shards: shards})
			_, recs := collect(t, s)
			if got, want := seqs(recs), []int{1, 2, 30, 20, 10, 11}; !equalInts(got, want) {
				t.Errorf("replayed %v, want %v", got, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			gone(t, dir)
		}
	})

	t.Run("crash before the copy is published", func(t *testing.T) {
		dir := legacy(t)
		write(t, dir, segName(0, 0)+tmpSuffix, line(1))
		s := open(t, dir, SegmentedConfig{})
		defer s.Close()
		if _, recs := collect(t, s); len(recs) != 6 {
			t.Errorf("replayed %d records, want all 6 (adoption reruns)", len(recs))
		}
		gone(t, dir)
	})

	t.Run("publish not durable", func(t *testing.T) {
		dir := legacy(t)
		s := open(t, dir, SegmentedConfig{})
		restore := failNthDirSync(1)
		err := s.Recover(func([]byte) error { return nil }, func([]byte) error { return nil })
		restore()
		if !errors.Is(err, ErrIO) {
			t.Fatalf("recover: %v, want ErrIO", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "meta.log")); err != nil {
			t.Fatalf("legacy files must outlive a copy that is not durable yet: %v", err)
		}
	})

	t.Run("crash after the copy is published", func(t *testing.T) {
		dir := legacy(t)
		write(t, dir, segName(0, 0), line(1, 2, 30, 20, 10, 11))
		s := open(t, dir, SegmentedConfig{})
		defer s.Close()
		if _, recs := collect(t, s); len(recs) != 6 {
			t.Errorf("replayed %d records, want 6 (legacy leftovers must not replay twice)", len(recs))
		}
		gone(t, dir)
	})
}

// TestConcurrentShardsRotateAndFold (run with -race): one appender per
// shard rotates its own tail while a folder quiesces them all — as the
// Hive does with its commit locks — and folds; recovery then yields every
// acknowledged record exactly once, each shard's in order.
func TestConcurrentShardsRotateAndFold(t *testing.T) {
	const shards, perShard = 4, 200
	dir := t.TempDir()
	cfg := SegmentedConfig{Shards: shards, SegmentBytes: 256, SnapshotEvery: 3}
	s := open(t, dir, cfg)
	collect(t, s)

	var quiesce sync.RWMutex // appenders share it, the folder owns it
	var mu sync.Mutex
	var acked []keyed
	fold := func() {
		quiesce.Lock()
		defer quiesce.Unlock()
		if !s.SnapshotDue() {
			return
		}
		state, _ := json.Marshal(acked)
		if err := s.WriteSnapshot(state); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	for si := 0; si < shards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for n := 0; n < perShard; n++ {
				r := keyed{Seq: n, Key: fmt.Sprint(si)}
				line, _ := json.Marshal(r)
				quiesce.RLock()
				err := s.AppendBatch(si, [][]byte{line})
				if err == nil {
					mu.Lock()
					acked = append(acked, r)
					mu.Unlock()
				}
				quiesce.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				if s.SnapshotDue() {
					fold()
				}
				_ = s.Stats()
			}
		}(si)
	}
	wg.Wait()
	st := s.Stats()
	if st.Snapshots == 0 {
		t.Error("the run never folded")
	}
	for si, n := range st.ShardSyncs {
		if n < perShard {
			t.Errorf("shard %d synced %d times, want >= %d (one per commit)", si, n, perShard)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, cfg)
	defer s2.Close()
	snap, recs := collect(t, s2)
	var got []keyed
	if err := json.Unmarshal(snap, &got); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		var k keyed
		if err := json.Unmarshal(r, &k); err != nil {
			t.Fatal(err)
		}
		got = append(got, k)
	}
	next := make(map[string]int)
	for _, r := range got {
		if r.Seq != next[r.Key] {
			t.Fatalf("shard %s: recovered record %d where %d was due", r.Key, r.Seq, next[r.Key])
		}
		next[r.Key]++
	}
	if len(got) != shards*perShard {
		t.Errorf("recovered %d records, want %d", len(got), shards*perShard)
	}
}
