package hive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"apisense/internal/hive/store"
	"apisense/internal/transport"
)

// upload builds a deterministic upload for task/device with a payload
// distinguishing seq.
func upload(taskID, deviceID string, seq int) transport.Upload {
	return transport.Upload{
		TaskID: taskID, DeviceID: deviceID,
		Records: []transport.UploadRecord{{
			Sensor: "gps", TimeMillis: int64(seq),
			Data: map[string]any{"seq": float64(seq)},
		}},
	}
}

// canonicalWorkload drives a fixed mutation sequence — registrations,
// publications, uploads, re-registration, unregistration — through h.
// Deterministic, so every engine persists the same logical history.
func canonicalWorkload(t testing.TB, h *Hive) []transport.TaskSpec {
	t.Helper()
	for i := 0; i < 5; i++ {
		must(t, h.RegisterDevice(deviceInfo(fmt.Sprintf("d%d", i), fmt.Sprintf("user%d", i), 45.7, 4.8)))
	}
	var specs []transport.TaskSpec
	for i := 0; i < 3; i++ {
		spec, _, err := h.PublishTask(taskSpec(fmt.Sprintf("work-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for round := 0; round < 4; round++ {
		for ti, spec := range specs {
			batch := make([]transport.Upload, 0, 3)
			for d := 0; d < 3; d++ {
				batch = append(batch, upload(spec.ID, fmt.Sprintf("d%d", d), round*100+ti*10+d))
			}
			for _, err := range h.SubmitBatch(batch) {
				must(t, err)
			}
		}
	}
	// A heartbeat re-registration (overwrites) and a departure.
	must(t, h.RegisterDevice(deviceInfo("d1", "user1", 45.8, 4.9)))
	must(t, h.UnregisterDevice("d4"))
	return specs
}

// recoverClosed recovers a hive from s and closes s again.
func recoverClosed(t *testing.T, s store.Store) *Hive {
	t.Helper()
	h, err := RecoverFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return h
}

// stateImage recovers a hive from s and returns its snapshot image, which
// is canonical (one state, one image) and so byte-comparable.
func stateImage(t *testing.T, s store.Store) []byte {
	t.Helper()
	img, err := recoverClosed(t, s).encodeState()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// stateJSON is the state image earlier releases folded — the whole state
// as one JSON object — encoded from h's decoded uploads.
// testdata/stores/state.json is one, written by the engines the fixtures
// come from.
func stateJSON(t testing.TB, h *Hive) []byte {
	t.Helper()
	h.mu.RLock()
	defer h.mu.RUnlock()
	reg := h.registry()
	st := struct {
		Devices     map[string]transport.DeviceInfo `json:"devices"`
		Tasks       map[string]transport.TaskSpec   `json:"tasks"`
		Assignments map[string][]string             `json:"assignments"`
		Uploads     map[string][]transport.Upload   `json:"uploads"`
		NextTaskID  int                             `json:"nextTaskId"`
	}{reg.Devices, reg.Tasks, reg.Assignments, make(map[string][]transport.Upload), reg.NextTaskID}
	for task, held := range h.uploads {
		for _, raw := range held.raw {
			var u transport.Upload
			if err := json.Unmarshal(raw, &u); err != nil {
				t.Fatal(err)
			}
			st.Uploads[task] = append(st.Uploads[task], u)
		}
	}
	img, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// checkCounters compares the upload and record counts Stats keeps with a
// walk that decodes every held upload.
func checkCounters(t *testing.T, h *Hive) {
	t.Helper()
	var uploads, records int
	h.mu.RLock()
	for _, held := range h.uploads {
		for _, raw := range held.raw {
			var u transport.Upload
			if err := json.Unmarshal(raw, &u); err != nil {
				t.Fatal(err)
			}
			uploads++
			records += len(u.Records)
		}
	}
	h.mu.RUnlock()
	if st := h.Stats(); st.Uploads != uploads || st.Records != records {
		t.Errorf("Stats counts %d uploads / %d records, a walk finds %d / %d", st.Uploads, st.Records, uploads, records)
	}
}

// TestEnginesReplayIdenticalState: the same workload persisted at one
// commit shard and at four, folding several times mid-run and never
// folding, recovers to the byte-identical Hive state a memory-only Hive
// reaches — in particular a post-fold recovery equals a never-folded one.
func TestEnginesReplayIdenticalState(t *testing.T) {
	mem := New()
	canonicalWorkload(t, mem)
	ref, err := mem.encodeState()
	if err != nil || len(ref) == 0 {
		t.Fatalf("reference state image: %d bytes, %v", len(ref), err)
	}

	for _, shards := range []int{1, 4} {
		for _, folds := range []bool{true, false} {
			// Tiny segments so the workload rotates many times.
			cfg := store.SegmentedConfig{Shards: shards, SegmentBytes: 512, SnapshotEvery: 2}
			if !folds {
				cfg.SnapshotEvery = 1 << 20
			}
			t.Run(fmt.Sprintf("shards=%d/folds=%v", shards, folds), func(t *testing.T) {
				dir := t.TempDir()
				s, err := store.OpenSegmented(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				h, err := RecoverFrom(s)
				if err != nil {
					t.Fatal(err)
				}
				canonicalWorkload(t, h)
				st := s.Stats()
				if folded := st.Snapshots > 0; folded != folds {
					t.Errorf("first life folded %d times, want folds=%v", st.Snapshots, folds)
				}
				if !folds && st.Segments < 2*shards {
					t.Errorf("first life left %d segments, want several per shard", st.Segments)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}

				s2, err := store.OpenSegmented(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if img := stateImage(t, s2); !bytes.Equal(img, ref) {
					t.Errorf("recovered state image differs from the memory-only Hive's (%d vs %d bytes)", len(img), len(ref))
				}
			})
		}
	}
}

// TestLegacyStoreFixtures: stores written by the three retired engines
// (testdata/stores, produced by canonicalWorkload at the last commit that
// had them) are adopted as documented and recover, at one commit shard
// and at four, to the byte-identical state image those engines held —
// the segmented one from a snapshot in the earlier single-JSON-object
// form. A fold then rewrites the snapshot in the framed form, and the
// store recovers from that to the same state.
func TestLegacyStoreFixtures(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stores", "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	// adopt copies a fixture into a fresh directory the way an operator
	// would hand it to the engine.
	adopt := map[string]func(t *testing.T, src, dir string){
		// mkdir d && mv hive.journal d/seg-00000000.log
		"journal": func(t *testing.T, src, dir string) {
			copyFile(t, filepath.Join(src, "hive.journal"), filepath.Join(dir, "seg-00000000.log"))
		},
		// Both directory layouts open in place.
		"segmented": copyDir,
		"sharded":   copyDir,
	}
	for name, adopt := range adopt {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				dir := t.TempDir()
				adopt(t, filepath.Join("testdata", "stores", name), dir)
				open := func() *store.Segmented {
					s, err := store.OpenSegmented(dir, store.SegmentedConfig{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				// Twice: the second recovery reads what the first left,
				// the sharded layout's one-shot conversion included.
				for life := 0; life < 2; life++ {
					h := recoverClosed(t, open())
					if got := stateJSON(t, h); !bytes.Equal(got, want) {
						t.Errorf("life %d: recovered state image differs from the fixture's (%d vs %d bytes)", life, len(got), len(want))
					}
					checkCounters(t, h)
				}
				s := open()
				h, err := RecoverFrom(s)
				if err != nil {
					t.Fatal(err)
				}
				img, err := h.encodeState()
				if err != nil {
					t.Fatal(err)
				}
				must(t, s.WriteSnapshot(img))
				must(t, s.Close())
				if got := stateImage(t, open()); !bytes.Equal(got, img) {
					t.Errorf("recovery from the rewritten snapshot differs from the state folded into it (%d vs %d bytes)", len(got), len(img))
				}
			})
		}
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, src, dir string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		copyFile(t, filepath.Join(src, e.Name()), filepath.Join(dir, e.Name()))
	}
}

// TestRecoveredSegmentedHiveUnderConcurrentIngest (run with -race):
// recover a Hive from a multi-segment store, land concurrent SubmitBatch
// traffic on the new tails from one goroutine per task (plus concurrent
// readers), and assert the final replayed state is byte-identical to a
// memory-only Hive fed the same history — at one commit shard without
// folds, and at four with folds quiescing the committers mid-traffic.
func TestRecoveredSegmentedHiveUnderConcurrentIngest(t *testing.T) {
	for _, cfg := range []store.SegmentedConfig{
		// Small segments, no folds: recovery must walk multiple segments.
		{Shards: 1, SegmentBytes: 256, SnapshotEvery: 1 << 20},
		{Shards: 4, SegmentBytes: 256, SnapshotEvery: 2},
	} {
		t.Run(fmt.Sprintf("shards=%d", cfg.Shards), func(t *testing.T) {
			recoveredHiveUnderConcurrentIngest(t, cfg)
		})
	}
}

func recoveredHiveUnderConcurrentIngest(t *testing.T, cfg store.SegmentedConfig) {
	segDir := filepath.Join(t.TempDir(), "seg")
	openSeg := func() (store.Store, error) { return store.OpenSegmented(segDir, cfg) }
	folds := cfg.SnapshotEvery < 1<<20

	// First life: seed history across several segments.
	s, err := openSeg()
	if err != nil {
		t.Fatal(err)
	}
	h, err := RecoverFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	specs := canonicalWorkload(t, h)
	if segs := s.Stats().Segments; !folds && segs < 2 {
		t.Fatalf("first life produced %d segments, want a multi-segment store", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: recover, then hammer the new tails concurrently.
	s, err = openSeg()
	if err != nil {
		t.Fatal(err)
	}
	h, err = RecoverFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perBatch = 8, 4
	var wg sync.WaitGroup
	for ti, spec := range specs {
		wg.Add(1)
		go func(ti int, taskID string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := make([]transport.Upload, 0, perBatch)
				for d := 0; d < perBatch; d++ {
					batch = append(batch, upload(taskID, fmt.Sprintf("d%d", d%3), 1000+ti*1000+r*10+d))
				}
				for _, err := range h.SubmitBatch(batch) {
					if err != nil {
						t.Error(err)
					}
				}
			}
		}(ti, spec.ID)
	}
	// Concurrent readers race the commits (the -race payoff).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = h.Stats()
			_, _ = h.StoreStats()
			_ = h.Devices()
			if _, err := h.Uploads(specs[i%len(specs)].ID); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	if st := s.Stats(); folds && (st.Snapshots == 0 || st.SnapshotFailures != 0) {
		t.Errorf("second life: %d folds, %d failed; want folds under traffic, none failing", st.Snapshots, st.SnapshotFailures)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: the identical history through a memory-only Hive,
	// sequential, preserving each task's upload order.
	hr := New()
	refSpecs := canonicalWorkload(t, hr)
	for ti, spec := range refSpecs {
		for r := 0; r < rounds; r++ {
			batch := make([]transport.Upload, 0, perBatch)
			for d := 0; d < perBatch; d++ {
				batch = append(batch, upload(spec.ID, fmt.Sprintf("d%d", d%3), 1000+ti*1000+r*10+d))
			}
			for _, err := range hr.SubmitBatch(batch) {
				must(t, err)
			}
		}
	}
	refImg, err := hr.encodeState()
	if err != nil {
		t.Fatal(err)
	}

	// Third life: replay everything (old segments + concurrent tails).
	s, err = openSeg()
	if err != nil {
		t.Fatal(err)
	}
	gotImg := stateImage(t, s)
	if !bytes.Equal(gotImg, refImg) {
		t.Errorf("state after concurrent ingest differs from the memory-only reference (%d vs %d bytes)", len(gotImg), len(refImg))
	}
}

// TestShardedHiveIndependentCommitBoundaries: two hot tasks whose IDs
// hash to different shards commit through SubmitBatch on independent
// fsync boundaries — each shard's counter advances by its own task's
// batches only.
func TestShardedHiveIndependentCommitBoundaries(t *testing.T) {
	s, err := store.OpenSegmented(filepath.Join(t.TempDir(), "shard"), store.SegmentedConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	h, err := RecoverFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	must(t, h.RegisterDevice(deviceInfo("d0", "alice", 45.7, 4.8)))

	// Publish tasks until two land on distinct shards.
	first, _, err := h.PublishTask(taskSpec("hot-0"))
	if err != nil {
		t.Fatal(err)
	}
	hotA, shardA := first.ID, s.ShardFor(first.ID)
	hotB, shardB := "", 0
	for i := 1; hotB == ""; i++ {
		if i > 64 {
			t.Fatal("no second task landed on a distinct shard")
		}
		spec, _, err := h.PublishTask(taskSpec(fmt.Sprintf("hot-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if si := s.ShardFor(spec.ID); si != shardA {
			hotB, shardB = spec.ID, si
		}
	}

	before := s.Stats()
	const batchesA, batchesB = 5, 3
	for r := 0; r < batchesA; r++ {
		for _, err := range h.SubmitBatch([]transport.Upload{upload(hotA, "d0", r)}) {
			must(t, err)
		}
	}
	for r := 0; r < batchesB; r++ {
		for _, err := range h.SubmitBatch([]transport.Upload{upload(hotB, "d0", r)}) {
			must(t, err)
		}
	}
	after := s.Stats()

	if got := after.ShardSyncs[shardA] - before.ShardSyncs[shardA]; got != batchesA {
		t.Errorf("shard %d (task %s) advanced %d syncs, want %d", shardA, hotA, got, batchesA)
	}
	if got := after.ShardSyncs[shardB] - before.ShardSyncs[shardB]; got != batchesB {
		t.Errorf("shard %d (task %s) advanced %d syncs, want %d", shardB, hotB, got, batchesB)
	}
	for i := range after.ShardSyncs {
		if i != shardA && i != shardB && after.ShardSyncs[i] != before.ShardSyncs[i] {
			t.Errorf("untouched shard %d advanced from %d to %d", i, before.ShardSyncs[i], after.ShardSyncs[i])
		}
	}
}
