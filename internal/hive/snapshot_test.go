package hive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"apisense/internal/hive/store"
	"apisense/internal/transport"
)

// TestUploadRecordMatchesEventEncoding: an upload's log record is byte for
// byte what encoding the event struct wrote before uploads were held as
// bytes — HTML-escaped, non-ASCII and invalid UTF-8 strings, floats and
// nested data included — so the log format does not change.
func TestUploadRecordMatchesEventEncoding(t *testing.T) {
	// The event shape that encoded upload records until then.
	type structEvent struct {
		Kind      string                `json:"kind"`
		Device    *transport.DeviceInfo `json:"device,omitempty"`
		DeviceID  string                `json:"deviceId,omitempty"`
		Task      *transport.TaskSpec   `json:"task,omitempty"`
		Recruited []string              `json:"recruited,omitempty"`
		Upload    *transport.Upload     `json:"upload,omitempty"`
	}
	for i, u := range []transport.Upload{
		{},
		upload("task-0001", "d0", 7),
		{TaskID: "t<&>", DeviceID: "dé \xff", Logs: []string{"<script>", ""}, Records: []transport.UploadRecord{
			{Sensor: "gps", TimeMillis: -1, Data: map[string]any{"lat": 45.123456789012345, "n": 1, "big": int64(1) << 60, "s": "a\"b\\c\n"}},
			{Sensor: "acc", Data: map[string]any{"xyz": []any{1.5e-300, 2e21, true, nil}, "nested": map[string]any{"k": "<v>"}}},
			{},
		}},
	} {
		raw, err := json.Marshal(&u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(structEvent{Kind: evUpload, Upload: &u})
		if err != nil {
			t.Fatal(err)
		}
		if got := uploadRecord(raw); !bytes.Equal(got, want) {
			t.Errorf("upload %d: record\n%s\nwant\n%s", i, got, want)
		}
	}
}

// TestSegmentsMatchParentFixtures: the log a store writes for
// canonicalWorkload is byte-identical to the checked-in fixtures, which
// were written before uploads were held as bytes — a never-folding store's
// one segment equals the single-file journal, and a folding one with the
// fixture's sizing (512-byte segments, a fold every 3) leaves the same
// segments after the same fold. That fold's snapshot is in the framed form
// now, and restores the state the fixture's JSON snapshot does.
func TestSegmentsMatchParentFixtures(t *testing.T) {
	fixtures := filepath.Join("testdata", "stores")
	sameFile := func(t *testing.T, got, want string) {
		t.Helper()
		a, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from %s (%d vs %d bytes)", got, want, len(a), len(b))
		}
	}
	write := func(t *testing.T, cfg store.SegmentedConfig) string {
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
		must(t, s.Close())
		return dir
	}

	t.Run("never-folds", func(t *testing.T) {
		dir := write(t, store.SegmentedConfig{SnapshotEvery: 1 << 20})
		sameFile(t, filepath.Join(dir, "seg-00000000.log"), filepath.Join(fixtures, "journal", "hive.journal"))
	})
	t.Run("folds", func(t *testing.T) {
		dir := write(t, store.SegmentedConfig{SegmentBytes: 512, SnapshotEvery: 3})
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadDir(filepath.Join(fixtures, "segmented"))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(want) {
			t.Fatalf("store holds %d files, the fixture %d", len(entries), len(want))
		}
		for i, e := range want {
			if entries[i].Name() != e.Name() {
				t.Fatalf("file %d is %s, the fixture's %s", i, entries[i].Name(), e.Name())
			}
			if filepath.Ext(e.Name()) == ".log" {
				sameFile(t, filepath.Join(dir, e.Name()), filepath.Join(fixtures, "segmented", e.Name()))
			}
		}
		restore := func(path string) []byte {
			state, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h := New()
			must(t, h.restoreState(state))
			return stateJSON(t, h)
		}
		snap := "snapshot-00000007.json"
		if got, want := restore(filepath.Join(dir, snap)), restore(filepath.Join(fixtures, "segmented", snap)); !bytes.Equal(got, want) {
			t.Errorf("the framed snapshot restores a different state than the fixture's JSON one (%d vs %d bytes)", len(got), len(want))
		}
	})
}

// canonicalSnapshot is the framed snapshot of canonicalWorkload's state.
func canonicalSnapshot(t testing.TB) []byte {
	h := New()
	canonicalWorkload(t, h)
	img, err := h.encodeState()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSnapshotRejectsAnyFlippedByte: with upload bodies restored unparsed,
// the checksum is what detects damage — any byte of a framed snapshot
// flipped in any bit pattern fails the restore with the corrupt code, and
// so does a whole recovery, whether the flip lands in the header, the
// registry, the framing or an upload body.
func TestSnapshotRejectsAnyFlippedByte(t *testing.T) {
	img := canonicalSnapshot(t)
	if err := New().restoreState(img); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	for off := range img {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(img)
			bad[off] ^= mask
			if err := New().restoreState(bad); !errors.Is(err, ErrCorruptJournal) {
				t.Fatalf("byte %d ^ %#x: restore err = %v, want %s", off, mask, err, ErrCorruptJournal)
			}
		}
	}

	// Through the engine: fold the workload, then damage the snapshot.
	dir := t.TempDir()
	cfg := store.SegmentedConfig{SegmentBytes: 512, SnapshotEvery: 3}
	s, err := store.OpenSegmented(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := RecoverFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	canonicalWorkload(t, h)
	must(t, s.Close())
	snap := filepath.Join(dir, "snapshot-00000007.json")
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Index(good, []byte(`"seq":`))
	if body < 0 {
		t.Fatal("no upload body found in the snapshot")
	}
	for _, off := range []int{0, len(snapshotMagic), len(snapshotMagic) + 4, len(snapshotMagic) + 40, body, body + 6, len(good) - 1} {
		bad := bytes.Clone(good)
		bad[off] ^= 0x20
		if err := os.WriteFile(snap, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenSegmented(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverFrom(s); !errors.Is(err, ErrCorruptJournal) {
			t.Errorf("byte %d flipped: recovery err = %v, want %s", off, err, ErrCorruptJournal)
		}
		s.Close()
	}
}

// FuzzRestoreSnapshot: whatever bytes a snapshot file holds, restoring them
// yields an error or a state, never a panic. An accepted framed snapshot
// re-encodes to exactly its own bytes, and the state restored from any
// accepted snapshot survives a fold unchanged. Each input is also tried
// with its checksum recomputed, so mutations reach the framing behind it.
func FuzzRestoreSnapshot(f *testing.F) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "stores", "segmented", "snapshot-00000007.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(canonicalSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if sum := len(snapshotMagic); bytes.HasPrefix(data, snapshotMagic) && len(data) >= sum+4 {
			fixed := bytes.Clone(data)
			binary.LittleEndian.PutUint32(fixed[sum:], crc32.Checksum(fixed[sum+4:], castagnoli))
			inputs = append(inputs, fixed)
		}
		for _, in := range inputs {
			h := New()
			if err := h.restoreState(in); err != nil {
				if !errors.Is(err, ErrCorruptJournal) {
					t.Fatalf("restore failed without the corrupt code: %v", err)
				}
				continue
			}
			h.Stats()
			for task := range h.uploads {
				if _, ok := h.tasks[task]; ok {
					h.Uploads(task) // may fail on a body the checksum vouched for; must not panic
				}
			}
			img, err := h.encodeState()
			if err != nil {
				t.Fatal(err)
			}
			if in[0] != '{' && !bytes.Equal(img, in) {
				t.Fatalf("accepted snapshot re-encodes differently:\n%q\n%q", in, img)
			}
			again := New()
			if err := again.restoreState(img); err != nil {
				t.Fatalf("re-encoded snapshot does not restore: %v", err)
			}
			if img2, _ := again.encodeState(); !bytes.Equal(img2, img) {
				t.Fatal("re-encoded snapshot restores to a different state")
			}
		}
	})
}
