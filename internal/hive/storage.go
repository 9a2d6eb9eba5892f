package hive

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
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
// retired ones.
type event struct {
	Kind      string                `json:"kind"`
	Device    *transport.DeviceInfo `json:"device,omitempty"`
	DeviceID  string                `json:"deviceId,omitempty"`
	Task      *transport.TaskSpec   `json:"task,omitempty"`
	Recruited []string              `json:"recruited,omitempty"`
	Upload    *transport.Upload     `json:"upload,omitempty"`
}

// Event kinds.
const (
	evRegister   = "register"
	evUnregister = "unregister"
	evPublish    = "publish"
	evUpload     = "upload"
)

// snapshotState is the Hive's complete in-memory image, folded into an
// immutable snapshot by the storage engine. json.Marshal emits map keys
// sorted and assignment sets are stored as sorted ID slices, so encoding
// the same logical state always yields the same bytes — replay-equality
// tests compare these images directly.
type snapshotState struct {
	Devices     map[string]transport.DeviceInfo `json:"devices"`
	Tasks       map[string]transport.TaskSpec   `json:"tasks"`
	Assignments map[string][]string             `json:"assignments"`
	Uploads     map[string][]transport.Upload   `json:"uploads"`
	NextTaskID  int                             `json:"nextTaskId"`
}

// encodeState serialises the registry under the read lock. The caller
// must have quiesced appends (hold metaMu and every commit lock) for the
// image to exactly cover the log.
func (h *Hive) encodeState() ([]byte, error) {
	h.mu.RLock()
	st := snapshotState{
		Devices:     h.devices,
		Tasks:       h.tasks,
		Assignments: make(map[string][]string, len(h.assignments)),
		Uploads:     h.uploads,
		NextTaskID:  h.nextTaskID,
	}
	for taskID, set := range h.assignments {
		ids := make([]string, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		st.Assignments[taskID] = ids
	}
	data, err := json.Marshal(st)
	h.mu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("%w: encode snapshot: %w", ErrJournalIO, err)
	}
	return data, nil
}

// restoreState loads a snapshot image into a fresh Hive during recovery.
func (h *Hive) restoreState(state []byte) error {
	var st snapshotState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("%w: snapshot: %w", ErrCorruptJournal, err)
	}
	for id, d := range st.Devices {
		h.devices[id] = d
	}
	for id, t := range st.Tasks {
		h.tasks[id] = t
	}
	for taskID, ids := range st.Assignments {
		set := make(map[string]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		h.assignments[taskID] = set
	}
	for taskID, ups := range st.Uploads {
		h.uploads[taskID] = ups
	}
	if st.NextTaskID > h.nextTaskID {
		h.nextTaskID = st.NextTaskID
	}
	return nil
}

// applyRecord decodes one log record and applies it during recovery.
func (h *Hive) applyRecord(rec []byte) error {
	var e event
	if err := json.Unmarshal(rec, &e); err != nil {
		return fmt.Errorf("%w: %w", ErrCorruptJournal, err)
	}
	return h.apply(e)
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
// appended so far. Readers are only blocked for the in-memory encode:
// h.mu is released before the disk write.
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
		if e.Upload == nil {
			return fmt.Errorf("%w: upload event lacks payload", ErrCorruptJournal)
		}
		h.uploads[e.Upload.TaskID] = append(h.uploads[e.Upload.TaskID], *e.Upload)
		return nil
	default:
		return fmt.Errorf("%w: unknown event kind %q", ErrCorruptJournal, e.Kind)
	}
}
