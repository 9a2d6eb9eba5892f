// Package hive implements the central service of the APISENSE platform
// (§2 of the paper): "the Hive service, that is responsible for managing
// the community of mobile users and publishing crowd-sensing tasks". Tasks
// are uploaded by Honeycomb endpoints, offloaded to qualifying devices
// (recruitment by shared sensors and optionally by region), and the
// datasets the devices produce are ingested and handed back to the
// publishing Honeycomb.
//
// The Hive is an in-memory, mutex-guarded registry wrapped by an HTTP API
// (see server.go); it is deliberately dependency-free so it can run
// in-process in tests and benchmarks or as the cmd/hive binary.
package hive

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"apisense/internal/apierr"
	"apisense/internal/geo"
	"apisense/internal/hive/store"
	"apisense/internal/ingest"
	"apisense/internal/otrace"
	"apisense/internal/transport"
)

// Sentinel errors of the registry API. Each is a coded apierr sentinel:
// the code is returned in HTTP error bodies and counted in metrics, and
// the category determines the HTTP status (see apierr.HTTPStatus and
// docs/OPERATIONS.md for the operator-facing catalogue). Wrap with
// fmt.Errorf("%w: ...", Err) to add call-site context; match with
// errors.Is.
var (
	// ErrUnknownDevice marks a reference to an unregistered device.
	// HTTP 404.
	ErrUnknownDevice = apierr.New("hive.unknown_device", apierr.NotFound, "hive: unknown device")
	// ErrUnknownTask marks a reference to an unpublished task. HTTP 404.
	ErrUnknownTask = apierr.New("hive.unknown_task", apierr.NotFound, "hive: unknown task")
	// ErrNotAssigned marks an upload from a device that was not recruited
	// for the task. HTTP 403.
	ErrNotAssigned = apierr.New("hive.not_assigned", apierr.Forbidden, "hive: device not assigned to task")
	// ErrNoQualifyingDevices marks a task publication no registered
	// device qualifies for. HTTP 409.
	ErrNoQualifyingDevices = apierr.New("hive.no_qualifying_devices", apierr.Conflict, "hive: no device qualifies for the task")
	// ErrUploadLimit is returned by SubmitUpload when a task has reached
	// its per-task upload cap (see SetMaxUploadsPerTask). The HTTP layer
	// maps it to 429 Too Many Requests.
	ErrUploadLimit = apierr.New("hive.upload_limit", apierr.ResourceExhausted, "hive: task upload limit reached")
	// ErrInvalidDevice marks a structurally invalid device registration.
	// The HTTP layer maps it to 400 Bad Request.
	ErrInvalidDevice = apierr.New("hive.invalid_device", apierr.Validation, "hive: invalid device registration")
)

// DefaultMaxUploadsPerTask is the per-task upload cap of a fresh Hive. The
// upload store is in-memory, so without a cap a runaway device fleet (or a
// stuck device retrying the same batch) could grow one task's history until
// the service OOMs.
const DefaultMaxUploadsPerTask = 100000

// Hive is the central coordination service. All exported methods are safe
// for concurrent use; reads take the registry RLock, admissions serialise
// per storage shard on the commit locks so each log file sees one writer
// at a time and h.mu is never held across a disk sync.
//
// Lock order, checked mechanically by cmd/apisenselint (lockfsync):
// metaMu before any commit lock, commit locks in ascending index order,
// h.mu innermost.
//
//lint:lockorder metaMu < mu
type Hive struct {
	mu          sync.RWMutex
	devices     map[string]transport.DeviceInfo
	tasks       map[string]transport.TaskSpec
	assignments map[string]map[string]bool // taskID -> deviceID set
	uploads     map[string]*heldUploads    // taskID -> admitted uploads
	uploadCap   int                        // per-task; <= 0 means unlimited
	nextTaskID  int
	store       store.Store // optional durability engine, see storage.go

	// commit serialises upload group commits (admit + append + fsync) per
	// storage shard: commit[i] guards shard i of the attached store, so
	// two hot tasks on different shards commit concurrently while batches
	// touching the same task still serialise (a task always maps to one
	// shard). Holding a task's shard lock also keeps its admitted uploads
	// at the tail of the task slice until the commit outcome is known,
	// which is what makes rollback a simple pop. Sized by AttachStore
	// (one lock for a single-shard store and for memory-only Hives).
	commit []sync.Mutex

	// metaMu serialises registry mutations (register, unregister,
	// publish) end to end — memory mutation plus control-plane append —
	// so the persisted event order always matches the mutation order
	// without holding h.mu across the disk sync.
	metaMu sync.Mutex

	// metrics, when bound (see Metrics.BindHive), counts admitted uploads
	// per task and, with a queue bound, times each group commit. Atomic so
	// late binding never races SubmitBatch.
	metrics atomic.Pointer[Metrics]

	// tracer, when set (see SetTracer), records store.append spans per
	// commit shard and store.snapshot_fold spans. Atomic so late binding
	// never races SubmitBatch.
	tracer atomic.Pointer[otrace.Tracer]
}

// heldUploads is one task's admitted uploads, in arrival order. Each is
// held as its JSON encoding — exactly the "upload" payload of its log
// record — which snapshots copy and restarts slice back without decoding.
// The bytes are never modified once held. records counts the sensed
// records across them, so Stats never decodes.
type heldUploads struct {
	raw     [][]byte
	records int
}

// hold appends one encoded upload carrying records records to task's
// uploads. Called with h.mu held, or during recovery.
func (h *Hive) hold(task string, raw []byte, records int) {
	t := h.uploads[task]
	if t == nil {
		t = &heldUploads{}
		h.uploads[task] = t
	}
	t.raw = append(t.raw, raw)
	t.records += records
}

// New creates an empty Hive with the default per-task upload cap.
func New() *Hive {
	return &Hive{
		devices:     make(map[string]transport.DeviceInfo),
		tasks:       make(map[string]transport.TaskSpec),
		assignments: make(map[string]map[string]bool),
		uploads:     make(map[string]*heldUploads),
		uploadCap:   DefaultMaxUploadsPerTask,
		commit:      make([]sync.Mutex, 1),
	}
}

// SetMaxUploadsPerTask bounds how many uploads one task may accumulate;
// further submissions fail with ErrUploadLimit. n <= 0 removes the cap.
// Journal replay is exempt: recovery restores whatever was accepted.
func (h *Hive) SetMaxUploadsPerTask(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.uploadCap = n
}

// RegisterDevice adds a device to the community. Re-registering the same ID
// updates its info (battery level, position).
func (h *Hive) RegisterDevice(info transport.DeviceInfo) error {
	if info.ID == "" || info.User == "" {
		return fmt.Errorf("%w: device id and user are required", ErrInvalidDevice)
	}
	h.metaMu.Lock()
	h.mu.Lock()
	h.devices[info.ID] = info
	s := h.store
	h.mu.Unlock()
	err := h.appendMeta(s, event{Kind: evRegister, Device: &info})
	h.metaMu.Unlock()
	if err != nil {
		return err
	}
	h.maybeSnapshot()
	return nil
}

// UnregisterDevice removes a device; pending assignments are dropped.
func (h *Hive) UnregisterDevice(id string) error {
	h.metaMu.Lock()
	h.mu.Lock()
	if _, ok := h.devices[id]; !ok {
		h.mu.Unlock()
		h.metaMu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownDevice, id)
	}
	delete(h.devices, id)
	for _, set := range h.assignments {
		delete(set, id)
	}
	s := h.store
	h.mu.Unlock()
	err := h.appendMeta(s, event{Kind: evUnregister, DeviceID: id})
	h.metaMu.Unlock()
	if err != nil {
		return err
	}
	h.maybeSnapshot()
	return nil
}

// Devices returns the registered devices, sorted by ID.
func (h *Hive) Devices() []transport.DeviceInfo {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]transport.DeviceInfo, 0, len(h.devices))
	for _, d := range h.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// qualifies reports whether a device can serve a task.
func qualifies(d transport.DeviceInfo, spec transport.TaskSpec) bool {
	have := make(map[string]bool, len(d.Sensors))
	for _, s := range d.Sensors {
		have[s] = true
	}
	for _, s := range spec.Sensors {
		if !have[s] {
			return false
		}
	}
	if spec.Region != nil {
		center := geo.Point{Lat: spec.Region.Lat, Lon: spec.Region.Lon}
		if geo.Distance(center, geo.Point{Lat: d.Lat, Lon: d.Lon}) > spec.Region.Radius {
			return false
		}
	}
	return true
}

// PublishTask validates the spec, assigns an ID, and recruits every
// qualifying device. It returns the published spec (with ID) and the
// recruited device IDs. Publishing a task no device qualifies for returns
// ErrNoQualifyingDevices.
func (h *Hive) PublishTask(spec transport.TaskSpec) (transport.TaskSpec, []string, error) {
	if err := spec.Validate(); err != nil {
		return transport.TaskSpec{}, nil, err
	}
	h.metaMu.Lock()
	h.mu.Lock()
	h.nextTaskID++
	spec.ID = fmt.Sprintf("task-%04d", h.nextTaskID)

	recruited := make(map[string]bool)
	var ids []string
	for id, d := range h.devices {
		if qualifies(d, spec) {
			recruited[id] = true
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		h.mu.Unlock()
		h.metaMu.Unlock()
		return transport.TaskSpec{}, nil, fmt.Errorf("%w: %s", ErrNoQualifyingDevices, spec.Name)
	}
	sort.Strings(ids)
	h.tasks[spec.ID] = spec
	h.assignments[spec.ID] = recruited
	s := h.store
	h.mu.Unlock()
	err := h.appendMeta(s, event{Kind: evPublish, Task: &spec, Recruited: ids})
	h.metaMu.Unlock()
	if err != nil {
		return transport.TaskSpec{}, nil, err
	}
	h.maybeSnapshot()
	return spec, ids, nil
}

// Task returns a published task by ID.
func (h *Hive) Task(id string) (transport.TaskSpec, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	spec, ok := h.tasks[id]
	if !ok {
		return transport.TaskSpec{}, fmt.Errorf("%w: %s", ErrUnknownTask, id)
	}
	return spec, nil
}

// TasksFor returns the tasks assigned to a device, sorted by ID — the
// offloading step: devices poll this to receive their scripts.
func (h *Hive) TasksFor(deviceID string) ([]transport.TaskSpec, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if _, ok := h.devices[deviceID]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDevice, deviceID)
	}
	var out []transport.TaskSpec
	for taskID, set := range h.assignments {
		if set[deviceID] {
			out = append(out, h.tasks[taskID])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// SetTracer makes subsequent commits record their storage work as spans
// of t: one store.append span per touched commit shard (attrs: shard,
// records; Err carries the apierr code on failure) parented on the
// caller's span, plus store.snapshot_fold spans when the engine folds.
// Safe to call concurrently with traffic; nil detaches.
func (h *Hive) SetTracer(t *otrace.Tracer) {
	h.tracer.Store(t)
}

// SubmitUpload ingests a dataset batch from a device. It is a thin wrapper
// over a batch of one, so it shares the validation and group-commit path of
// SubmitBatch.
func (h *Hive) SubmitUpload(u transport.Upload) error {
	return h.SubmitBatch([]transport.Upload{u})[0]
}

// SubmitBatch validates and admits a batch of uploads under one lock
// acquisition and journals every accepted one as a single group commit
// per storage shard — one fsync per batch per shard instead of one per
// upload. Admission is per item, not all-or-nothing: the returned slice
// has one entry per upload, nil meaning accepted. This is the sink the
// ingest queue's drain workers feed.
//
// Concurrency: the batch locks only the commit shards its tasks map to,
// so two batches for tasks on different shards of the store admit
// and fsync fully in parallel; batches touching the same task always
// serialise (a task maps to one shard). h.mu is held only for the
// in-memory admission, never across a disk sync.
//
// If a shard's group commit fails, the uploads admitted on that shard
// are rolled back from the in-memory store and reported failed, so
// memory never claims more than the caller was told. A partially
// persisted group may still replay after a crash — the failure edge is
// at-least-once, like any WAL. Conversely, concurrent readers may
// briefly observe admitted uploads whose sync is still in flight; the
// caller is only acknowledged after it.
//
// Every upload is encoded to JSON before any lock is taken; that encoding
// is what the Hive holds and what its log record carries. An upload that
// does not encode (a NaN or a channel in its Data, say) is refused with
// ErrJournalIO.
func (h *Hive) SubmitBatch(ups []transport.Upload) []error {
	//lint:allow ctxflow convenience wrapper, SubmitBatchContext is the traced form
	return h.SubmitBatchContext(context.Background(), ups)
}

// SubmitBatchContext is SubmitBatch with a caller context: when a tracer
// is attached (SetTracer) each touched shard's group commit is recorded
// as a store.append child span of the span carried by ctx — which is how
// an upload's trace extends through the ingest queue down to its fsync.
// Admission semantics are identical to SubmitBatch; the commit itself
// never aborts on ctx (acknowledged durability is all-or-nothing per
// shard). On a Hive served with WithMetrics and WithIngestQueue each call
// is one group commit: its latency, snapshot fold included, and its size
// land on the apisense_ingest_drain_seconds and
// apisense_ingest_group_size_uploads histograms.
func (h *Hive) SubmitBatchContext(ctx context.Context, ups []transport.Upload) []error {
	m := h.metrics.Load()
	t0 := m.startDrain()
	errs := h.submitBatch(ctx, m, ups)
	h.maybeSnapshot()
	m.observeDrain(t0, len(ups))
	return errs
}

// submitBatch admits and journals ups; m, when non-nil, counts the
// admitted uploads per task.
func (h *Hive) submitBatch(ctx context.Context, m *Metrics, ups []transport.Upload) []error {
	errs := make([]error, len(ups))
	if len(ups) == 0 {
		return errs
	}
	// Encode each upload once, before taking any lock: the bytes are what
	// the Hive holds for it and the payload of its log record.
	raws := make([][]byte, len(ups))
	for i := range ups {
		raw, err := json.Marshal(&ups[i])
		if err != nil {
			errs[i] = fmt.Errorf("%w: encode upload: %w", ErrJournalIO, err)
			continue
		}
		raws[i] = raw
	}
	h.mu.RLock()
	st := h.store
	commit := h.commit
	h.mu.RUnlock()

	// Lock the touched commit shards in ascending order (deadlock-free
	// against other batches and the snapshot quiesce, which locks all).
	shards := make([]int, 0, 4)
	if st != nil && len(commit) > 1 {
		touched := make(map[int]bool)
		for i := range ups {
			touched[st.ShardFor(ups[i].TaskID)] = true
		}
		for si := range touched {
			shards = append(shards, si)
		}
		sort.Ints(shards)
	} else {
		shards = append(shards, 0)
	}
	for _, si := range shards {
		commit[si].Lock()
	}
	defer func() {
		for k := len(shards) - 1; k >= 0; k-- {
			commit[shards[k]].Unlock()
		}
	}()

	h.mu.Lock()
	admitted := make([]int, 0, len(ups))
	for i := range ups {
		if errs[i] != nil {
			continue
		}
		if err := h.admitUpload(&ups[i], raws[i]); err != nil {
			errs[i] = err
			continue
		}
		admitted = append(admitted, i)
	}
	h.mu.Unlock()

	if st != nil && len(admitted) > 0 {
		// One group commit per touched shard. The shard locks keep each
		// admitted upload at the tail of its task's slice until its commit
		// outcome is known.
		byShard := make(map[int][]int, len(shards))
		for _, i := range admitted {
			si := 0
			if len(commit) > 1 {
				si = st.ShardFor(ups[i].TaskID)
			}
			byShard[si] = append(byShard[si], i)
		}
		tr := h.tracer.Load()
		for _, si := range shards {
			idxs := byShard[si]
			if len(idxs) == 0 {
				continue
			}
			var sp *otrace.ActiveSpan
			if tr != nil {
				_, sp = tr.Start(ctx, "store.append",
					otrace.Int("shard", si), otrace.Int("records", len(idxs)))
			}
			recs := make([][]byte, len(idxs))
			for k, i := range idxs {
				recs[k] = uploadRecord(raws[i])
			}
			var err error
			if aerr := st.AppendBatch(si, recs); aerr != nil {
				err = fmt.Errorf("%w: %w", ErrJournalIO, aerr)
			}
			if sp != nil {
				if err != nil {
					sp.SetErr(apierr.Code(err))
				}
				sp.End()
			}
			if err != nil {
				// Roll back this shard newest-first: each admitted upload
				// is the current tail of its task's slice (guaranteed by
				// the shard lock).
				h.mu.Lock()
				for k := len(idxs) - 1; k >= 0; k-- {
					i := idxs[k]
					t := h.uploads[ups[i].TaskID]
					t.raw[len(t.raw)-1] = nil
					t.raw = t.raw[:len(t.raw)-1]
					t.records -= len(ups[i].Records)
					errs[i] = err
				}
				h.mu.Unlock()
			}
		}
	}
	if m != nil {
		for _, i := range admitted {
			if errs[i] == nil {
				m.taskUploads.With(ups[i].TaskID).Inc()
			}
		}
	}
	return errs
}

// admitUpload validates one upload and holds raw, its encoding, in the
// in-memory store. Called with h.mu held; journaling is the caller's group
// commit.
func (h *Hive) admitUpload(u *transport.Upload, raw []byte) error {
	if _, ok := h.tasks[u.TaskID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, u.TaskID)
	}
	if _, ok := h.devices[u.DeviceID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDevice, u.DeviceID)
	}
	if !h.assignments[u.TaskID][u.DeviceID] {
		return fmt.Errorf("%w: device %s, task %s", ErrNotAssigned, u.DeviceID, u.TaskID)
	}
	if t := h.uploads[u.TaskID]; h.uploadCap > 0 && t != nil && len(t.raw) >= h.uploadCap {
		return fmt.Errorf("%w: task %s already holds %d uploads", ErrUploadLimit, u.TaskID, len(t.raw))
	}
	h.hold(u.TaskID, raw, len(u.Records))
	return nil
}

// Uploads returns the ingested uploads of a task, in arrival order, each
// decoded afresh from the JSON the Hive holds: the result shares nothing
// with the Hive, and Data values read back as a recovered Hive reads them
// (numbers are float64).
func (h *Hive) Uploads(taskID string) ([]transport.Upload, error) {
	raws, err := h.uploadsJSON(taskID)
	if err != nil || len(raws) == 0 {
		return nil, err
	}
	out := make([]transport.Upload, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("%w: task %s upload %d: %w", ErrCorruptJournal, taskID, i, err)
		}
	}
	return out, nil
}

// uploadsJSON returns the held encodings of a task's uploads, in arrival
// order. The slice is the caller's; the bytes are shared and read-only.
func (h *Hive) uploadsJSON(taskID string) ([][]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if _, ok := h.tasks[taskID]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTask, taskID)
	}
	if t := h.uploads[taskID]; t != nil {
		return append([][]byte(nil), t.raw...), nil
	}
	return nil, nil
}

// IngestStats are the streaming-ingestion gauges of an attached queue
// (queue depth, accepted/rejected/dropped counters, group commits).
type IngestStats = ingest.Stats

// Stats summarises the Hive state. Ingest and Store are populated by the
// HTTP layer when the server runs with the corresponding subsystem (see
// WithIngestQueue and AttachStore).
type Stats struct {
	Devices int `json:"devices"`
	Tasks   int `json:"tasks"`
	Uploads int `json:"uploads"`
	Records int `json:"records"`
	// Ingest snapshots the ingest queue, when one is wired in.
	Ingest *IngestStats `json:"ingest,omitempty"`
	// Store snapshots the storage engine, when one is attached.
	Store *StoreStats `json:"store,omitempty"`
}

// Stats returns current platform statistics, in time linear in the number
// of tasks: upload and record counts are kept per task.
func (h *Hive) Stats() Stats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := Stats{Devices: len(h.devices), Tasks: len(h.tasks)}
	for _, t := range h.uploads {
		s.Uploads += len(t.raw)
		s.Records += t.records
	}
	return s
}
