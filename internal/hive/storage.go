package hive

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"apisense/internal/apierr"
	"apisense/internal/hive/store"
	"apisense/internal/otrace"
	"apisense/internal/transport"
)

// ErrJournalIO marks a storage-engine disk failure (open, append, fsync
// or close). The HTTP layer maps it to 500: acknowledged durability could
// not be provided, and the affected uploads were rolled back (see
// Hive.SubmitBatch). Operators should treat it as a disk-health page.
// Engine-level failures also carry the store.io code, so both match with
// errors.Is.
var ErrJournalIO = apierr.New("hive.journal_io", apierr.Internal, "hive: journal I/O")

// ErrCorruptJournal marks a persisted event or snapshot that cannot be
// replayed: Recover wraps it around the offending record so callers can
// distinguish corruption from I/O failures with errors.Is. Torn final
// appends are NOT corruption — the engine truncates them away (see
// internal/hive/store). HTTP 500 (recovery never runs inside a request,
// but the code keeps logs greppable).
var ErrCorruptJournal = apierr.New("hive.corrupt_journal", apierr.Internal, "hive: corrupt journal event")

// StoreStats are the storage-engine gauges of an attached store
// (segments, log bytes, per-shard fsyncs, snapshot and replay timings).
type StoreStats = store.Stats

// event is one log record. Exactly one payload field is set, selected by
// Kind. The wire format has not changed since the first single-file
// journal, which is what lets the engine adopt stores written by the
// retired ones. Upload is the upload's own JSON, kept as bytes so that
// replay holds what the record carries (see heldUploads); upload records
// are written by uploadRecord.
type event struct {
	Kind      string                `json:"kind"`
	Device    *transport.DeviceInfo `json:"device,omitempty"`
	DeviceID  string                `json:"deviceId,omitempty"`
	Task      *transport.TaskSpec   `json:"task,omitempty"`
	Recruited []string              `json:"recruited,omitempty"`
	Upload    json.RawMessage       `json:"upload,omitempty"`
}

// Event kinds.
const (
	evRegister   = "register"
	evUnregister = "unregister"
	evPublish    = "publish"
	evUpload     = "upload"
)

// uploadRecordPrefix is how json.Marshal of event begins when only Kind
// (evUpload) and Upload are set.
const uploadRecordPrefix = `{"kind":"upload","upload":`

// uploadRecord wraps an upload's encoding in its log record, byte for byte
// what json.Marshal(event{Kind: evUpload, Upload: raw}) writes, without
// scanning raw again.
func uploadRecord(raw []byte) []byte {
	rec := make([]byte, 0, len(uploadRecordPrefix)+len(raw)+1)
	rec = append(rec, uploadRecordPrefix...)
	rec = append(rec, raw...)
	return append(rec, '}')
}

// applyRecord decodes one log record and applies it during recovery. An
// upload record in the form uploadRecord writes is not decoded as an
// event: its payload is sliced out and decoded once, as the upload.
func (h *Hive) applyRecord(rec []byte) error {
	if raw, ok := bytes.CutPrefix(rec, []byte(uploadRecordPrefix)); ok && len(raw) > 0 && raw[len(raw)-1] == '}' {
		return h.applyUpload(bytes.Clone(raw[:len(raw)-1]))
	}
	var e event
	if err := json.Unmarshal(rec, &e); err != nil {
		return fmt.Errorf("%w: %w", ErrCorruptJournal, err)
	}
	return h.apply(e)
}

// applyUpload holds raw, one upload's JSON, after decoding the two things
// the Hive indexes it by: its task and its record count. That decode also
// rejects anything but exactly one upload object, so a record whose
// payload applyRecord sliced out is held only if its "upload" field is
// all of raw. The other fields are checked when Uploads decodes them — as
// for an upload restored from a snapshot.
func (h *Hive) applyUpload(raw []byte) error {
	var u struct {
		TaskID  string     `json:"taskId"`
		Records []struct{} `json:"records"`
	}
	if raw == nil || string(raw) == "null" {
		return fmt.Errorf("%w: upload event lacks payload", ErrCorruptJournal)
	}
	if err := json.Unmarshal(raw, &u); err != nil {
		return fmt.Errorf("%w: upload event: %w", ErrCorruptJournal, err)
	}
	h.hold(u.TaskID, raw, len(u.Records))
	return nil
}

// AttachStore makes the Hive record every subsequent successful mutation
// to s, sharding upload commits across the engine's commit boundaries.
// Attach before serving traffic; existing state is not re-journalled.
// RecoverFrom attaches automatically.
func (h *Hive) AttachStore(s store.Store) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.store = s
	n := 1
	if s != nil {
		if sn := s.Shards(); sn > 1 {
			n = sn
		}
	}
	h.commit = make([]sync.Mutex, n)
}

// Store returns the attached storage engine (nil when the Hive is
// memory-only).
func (h *Hive) Store() store.Store {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.store
}

// StoreStats snapshots the attached engine's gauges; ok is false when
// the Hive runs memory-only.
func (h *Hive) StoreStats() (StoreStats, bool) {
	s := h.Store()
	if s == nil {
		return StoreStats{}, false
	}
	return s.Stats(), true
}

// appendMeta marshals e and appends it to s as one control-plane commit
// boundary. Callers hold h.metaMu — so append order matches mutation
// order — but never h.mu: the fsync does not block readers.
func (h *Hive) appendMeta(s store.Store, e event) error {
	if s == nil {
		return nil
	}
	rec, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("%w: encode event: %w", ErrJournalIO, err)
	}
	if err := s.AppendMeta([][]byte{rec}); err != nil {
		return fmt.Errorf("%w: %w", ErrJournalIO, err)
	}
	return nil
}

// maybeSnapshot folds the registry into an engine snapshot when the
// engine asks for one (after enough sealed segments).
// Mutators call it after releasing their locks; the fast path is one
// atomic load. The fold quiesces every writer — metaMu plus all commit
// locks, in order — so the encoded image covers exactly the records
// appended so far. Building the image copies the held upload bytes under
// the read lock (see encodeState); h.mu is released before the disk
// write.
func (h *Hive) maybeSnapshot() {
	h.mu.RLock()
	s := h.store
	commit := h.commit
	h.mu.RUnlock()
	if s == nil || !s.SnapshotDue() {
		return
	}
	h.metaMu.Lock()
	defer h.metaMu.Unlock()
	for i := range commit {
		commit[i].Lock()
	}
	defer func() {
		for i := len(commit) - 1; i >= 0; i-- {
			commit[i].Unlock()
		}
	}()
	// Re-check under the quiesce locks: if AttachStore swapped the engine
	// (or its commit slice) since the snapshot above, the mutexes held
	// here no longer exclude writers on the new slice — folding now could
	// miss in-flight appends. Bail; the new attachment owns snapshotting.
	h.mu.RLock()
	swapped := h.store != s || len(h.commit) != len(commit) ||
		(len(commit) > 0 && &h.commit[0] != &commit[0])
	h.mu.RUnlock()
	if swapped {
		return
	}
	if !s.SnapshotDue() { // another committer folded first
		return
	}
	// The fold is its own trace root: it runs on whichever committer
	// crossed the due point, amortised across many requests.
	var sp *otrace.ActiveSpan
	if tr := h.tracer.Load(); tr != nil {
		//lint:allow ctxflow the fold has no single caller; the span is a fresh trace root
		_, sp = tr.Start(context.Background(), "store.snapshot_fold")
	}
	state, err := h.encodeState()
	if err != nil {
		if sp != nil {
			sp.SetErr(apierr.Code(err))
			sp.End()
		}
		return // impossible for plain structs; the engine will re-ask
	}
	// A failed fold is counted by the engine and retried at the next due
	// point; the log stays intact either way.
	werr := s.WriteSnapshot(state)
	if sp != nil {
		sp.SetAttr(otrace.Int("bytes", len(state)))
		if werr != nil {
			sp.SetErr("store.snapshot_failed")
		}
		sp.End()
	}
}

// RecoverFrom replays a storage engine's persisted state (snapshot, then
// log records in commit order) into a fresh Hive and attaches the engine,
// so subsequent mutations append to it. The engine must be freshly
// opened; after RecoverFrom it is ready for traffic.
func RecoverFrom(s store.Store) (*Hive, error) {
	h := New()
	if err := s.Recover(h.restoreState, h.applyRecord); err != nil {
		return nil, wrapStoreErr(err)
	}
	h.AttachStore(s)
	return h, nil
}

// wrapStoreErr adds the hive-level error code matching a storage-engine
// failure, so callers branching on the historical hive.journal_io /
// hive.corrupt_journal codes keep working.
func wrapStoreErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, store.ErrCorrupt):
		return fmt.Errorf("%w: %w", ErrCorruptJournal, err)
	case errors.Is(err, store.ErrIO):
		return fmt.Errorf("%w: %w", ErrJournalIO, err)
	default:
		return err
	}
}

// apply restores one event's effect without re-journalling it. Publication
// events restore the stored recruitment verbatim instead of re-running
// recruitment, so that replay is deterministic regardless of current state.
// apply is validation-free (recovery restores whatever was accepted),
// which also makes replay order-independent across commit shards: only
// the relative order within one task's uploads and within the registry
// events matters, and the engine keeps each (see store.Segmented.Recover).
func (h *Hive) apply(e event) error {
	switch e.Kind {
	case evRegister:
		if e.Device == nil {
			return fmt.Errorf("%w: register event lacks device", ErrCorruptJournal)
		}
		h.devices[e.Device.ID] = *e.Device
		return nil
	case evUnregister:
		delete(h.devices, e.DeviceID)
		for _, set := range h.assignments {
			delete(set, e.DeviceID)
		}
		return nil
	case evPublish:
		if e.Task == nil || e.Task.ID == "" {
			return fmt.Errorf("%w: publish event lacks task", ErrCorruptJournal)
		}
		h.tasks[e.Task.ID] = *e.Task
		set := make(map[string]bool, len(e.Recruited))
		for _, id := range e.Recruited {
			set[id] = true
		}
		h.assignments[e.Task.ID] = set
		// Keep the ID counter ahead of every restored task.
		var n int
		if _, err := fmt.Sscanf(e.Task.ID, "task-%d", &n); err == nil && n > h.nextTaskID {
			h.nextTaskID = n
		}
		return nil
	case evUpload:
		return h.applyUpload(e.Upload)
	default:
		return fmt.Errorf("%w: unknown event kind %q", ErrCorruptJournal, e.Kind)
	}
}
