package hive

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"apisense/internal/hive/store"
	"apisense/internal/transport"
)

// recoverDir opens the storage engine on dir at its defaults and recovers
// a Hive from it.
func recoverDir(dir string) (*Hive, *store.Segmented, error) {
	s, err := store.OpenSegmented(dir, store.SegmentedConfig{})
	if err != nil {
		return nil, nil, wrapStoreErr(err)
	}
	h, err := RecoverFrom(s)
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	return h, s, nil
}

// journalDir returns a store directory holding content as its first
// segment — a hand-written log, or what moving a single-file journal of
// the retired engine into a directory leaves.
func journalDir(t *testing.T, content []byte) (dir, seg string) {
	t.Helper()
	dir = t.TempDir()
	seg = filepath.Join(dir, "seg-00000000.log")
	if err := os.WriteFile(seg, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, seg
}

func TestJournalRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")

	// First life: build some state.
	h1, j1, err := recoverDir(path)
	if err != nil {
		t.Fatal(err)
	}
	must(t, h1.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	must(t, h1.RegisterDevice(deviceInfo("d2", "bob", 45.7, 4.8)))
	must(t, h1.RegisterDevice(deviceInfo("gone", "eve", 45.7, 4.8)))
	spec, recruited, err := h1.PublishTask(taskSpec("persisted"))
	if err != nil {
		t.Fatal(err)
	}
	must(t, h1.SubmitUpload(transport.Upload{
		TaskID: spec.ID, DeviceID: "d1",
		Records: []transport.UploadRecord{{Sensor: "gps", TimeMillis: 1, Data: map[string]any{"lat": 45.7, "lon": 4.8}}},
	}))
	must(t, h1.UnregisterDevice("gone"))
	statsBefore := h1.Stats()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: replay.
	h2, j2, err := recoverDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()

	if got := h2.Stats(); got != statsBefore {
		t.Errorf("recovered stats = %+v, want %+v", got, statsBefore)
	}
	devs := h2.Devices()
	if len(devs) != 2 || devs[0].ID != "d1" || devs[1].ID != "d2" {
		t.Errorf("recovered devices = %+v", devs)
	}
	got, err := h2.Task(spec.ID)
	if err != nil || got.Name != "persisted" {
		t.Errorf("recovered task = %+v, %v", got, err)
	}
	tasks, err := h2.TasksFor("d1")
	if err != nil || len(tasks) != 1 {
		t.Errorf("recovered assignment: %v, %v", tasks, err)
	}
	ups, err := h2.Uploads(spec.ID)
	if err != nil || len(ups) != 1 || len(ups[0].Records) != 1 {
		t.Errorf("recovered uploads: %v, %v", ups, err)
	}
	_ = recruited

	// Task ID counter resumed: a new task must not collide.
	must(t, h2.RegisterDevice(deviceInfo("d3", "carol", 45.7, 4.8)))
	spec2, _, err := h2.PublishTask(taskSpec("after-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if spec2.ID == spec.ID {
		t.Errorf("task id collision after recovery: %s", spec2.ID)
	}
}

func TestRecoverMissingFileStartsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh")
	h, j, err := recoverDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := h.Stats(); got != (Stats{}) {
		t.Errorf("fresh hive stats = %+v", got)
	}
	// And it journals from the start.
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	data, err := os.ReadFile(filepath.Join(path, "seg-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("first segment empty after a mutation")
	}
}

// TestRecoverRejectsCorruptJournal: corruption that cannot be a torn
// final append — invalid bytes with valid records after them, or a
// record whose JSON parses but whose event cannot be applied — still
// fails recovery. (A torn FINAL line is tolerated and truncated instead;
// see TestRecoverTruncatesTornTail.)
func TestRecoverRejectsCorruptJournal(t *testing.T) {
	valid := `{"kind":"register","device":{"id":"d1","user":"alice"}}` + "\n"

	path, _ := journalDir(t, []byte("{not json\n"+valid))
	_, _, err := recoverDir(path)
	if !errors.Is(err, ErrCorruptJournal) {
		t.Errorf("valid record after invalid bytes: err = %v, want ErrCorruptJournal", err)
	}

	unknown, _ := journalDir(t, []byte(`{"kind":"martian"}`+"\n"+valid))
	if _, _, err := recoverDir(unknown); !errors.Is(err, ErrCorruptJournal) {
		t.Errorf("unknown event kind: err = %v, want ErrCorruptJournal", err)
	}
}

// TestRecoverTruncatesTornTail: a crash mid-append leaves a partial
// final record; recovery must keep every complete record, drop the torn
// bytes, and truncate the file so the next append starts at a clean
// boundary. Exercised at EVERY byte offset of the last event, including
// offset 0 (nothing of the last record written) and the full length
// (nothing torn at all).
func TestRecoverTruncatesTornTail(t *testing.T) {
	prefix := []byte(`{"kind":"register","device":{"id":"d1","user":"alice","sensors":["gps"],"battery":90,"lat":45.7,"lon":4.8}}` + "\n" +
		`{"kind":"register","device":{"id":"d2","user":"bob","sensors":["gps"],"battery":80,"lat":45.7,"lon":4.8}}` + "\n")
	last := []byte(`{"kind":"unregister","deviceId":"d2"}` + "\n")

	for cut := 0; cut <= len(last); cut++ {
		full := cut == len(last)
		data := append(append([]byte(nil), prefix...), last[:cut]...)
		path, seg := journalDir(t, data)

		h, j, err := recoverDir(path)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		wantDevices := 2
		if full {
			wantDevices = 1 // the unregister applied
		}
		if got := len(h.Devices()); got != wantDevices {
			t.Errorf("cut=%d: devices = %d, want %d", cut, got, wantDevices)
		}

		// The torn bytes are gone from disk: the log must accept new
		// appends at a clean boundary, and a second recovery must see the
		// new event as valid.
		if fi, err := os.Stat(seg); err != nil || (!full && fi.Size() != int64(len(prefix))) {
			t.Errorf("cut=%d: segment is %d bytes after recovery (%v), want the torn bytes truncated to %d", cut, fi.Size(), err, len(prefix))
		}
		must(t, h.RegisterDevice(deviceInfo("d3", "carol", 45.7, 4.8)))
		if err := j.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		h2, j2, err := recoverDir(path)
		if err != nil {
			t.Fatalf("cut=%d: second recovery failed: %v", cut, err)
		}
		if got := len(h2.Devices()); got != wantDevices+1 {
			t.Errorf("cut=%d: second life devices = %d, want %d", cut, got, wantDevices+1)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalGroupCommitSync: every append call is one commit boundary —
// a batch of uploads costs one fsync, not one per upload — and SyncEvery
// widens the boundary further (0 disables, Close still syncs).
func TestJournalGroupCommitSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync")
	h, j, err := recoverDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("sync"))
	if err != nil {
		t.Fatal(err)
	}
	syncs := func() uint64 { return j.Stats().Syncs }
	base := syncs()
	if base == 0 {
		t.Fatal("register + publish performed no fsync")
	}

	// One batch of 10 uploads = one group commit = one fsync.
	ups := make([]transport.Upload, 10)
	for i := range ups {
		ups[i] = transport.Upload{TaskID: spec.ID, DeviceID: "d1"}
	}
	for _, err := range h.SubmitBatch(ups) {
		must(t, err)
	}
	if got := syncs(); got != base+1 {
		t.Errorf("syncs after batch = %d, want %d (one group commit)", got, base+1)
	}

	// Single uploads sync every boundary...
	must(t, h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "d1"}))
	if got := syncs(); got != base+2 {
		t.Errorf("syncs after single upload = %d, want %d", got, base+2)
	}

	// ...unless SyncEvery widens the boundary.
	j.SetSyncEvery(3)
	for i := 0; i < 2; i++ {
		must(t, h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "d1"}))
	}
	if got := syncs(); got != base+2 {
		t.Errorf("syncs mid-window = %d, want %d (SyncEvery=3 not reached)", got, base+2)
	}
	must(t, h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "d1"}))
	if got := syncs(); got != base+3 {
		t.Errorf("syncs at window boundary = %d, want %d", got, base+3)
	}

	// SyncEvery(0) disables periodic fsync entirely.
	j.SetSyncEvery(0)
	for i := 0; i < 5; i++ {
		must(t, h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "d1"}))
	}
	if got := syncs(); got != base+3 {
		t.Errorf("syncs with SyncEvery=0 = %d, want %d", got, base+3)
	}
}

// TestSubmitBatchJournalFailureRollsBack: when the group commit cannot be
// written, the admitted uploads are rolled back from memory and every
// admitted item reports the failure — the store never claims more than
// the caller was told.
func TestSubmitBatchJournalFailureRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken")
	h, j, err := recoverDir(path)
	if err != nil {
		t.Fatal(err)
	}
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("rollback"))
	if err != nil {
		t.Fatal(err)
	}
	must(t, h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "d1"}))
	// Break the journal: every further write fails.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	errs := h.SubmitBatch([]transport.Upload{
		{TaskID: spec.ID, DeviceID: "d1"},
		{TaskID: "task-9999", DeviceID: "d1"}, // rejected before the commit
		{TaskID: spec.ID, DeviceID: "d1"},
	})
	if !errors.Is(errs[0], ErrJournalIO) || !errors.Is(errs[2], store.ErrIO) {
		t.Errorf("admitted items must report the journal failure under both codes: %v", errs)
	}
	if !errors.Is(errs[1], ErrUnknownTask) {
		t.Errorf("errs[1] = %v, want ErrUnknownTask", errs[1])
	}
	ups, err := h.Uploads(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Errorf("store holds %d uploads after failed commit, want 1 (rolled back)", len(ups))
	}
}

func TestJournalSkipsBlankLines(t *testing.T) {
	content := `{"kind":"register","device":{"id":"d1","user":"alice","sensors":["gps"],"battery":90,"lat":45.7,"lon":4.8}}

`
	path, _ := journalDir(t, []byte(content))
	h, j, err := recoverDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(h.Devices()) != 1 {
		t.Errorf("devices = %d, want 1", len(h.Devices()))
	}
}
