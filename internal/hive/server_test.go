package hive

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apisense/internal/evalcache"
	"apisense/internal/ingest"
	"apisense/internal/transport"
)

// postJSON posts raw bytes and returns status, body and headers.
func postJSON(t *testing.T, url, path string, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data), resp.Header
}

// capped builds a hive with one device, one published task and an upload
// cap of 1, with the first slot already consumed.
func capped(t *testing.T) (*Hive, transport.TaskSpec) {
	t.Helper()
	h := New()
	h.SetMaxUploadsPerTask(1)
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("capped"))
	if err != nil {
		t.Fatal(err)
	}
	must(t, h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "d1"}))
	return h, spec
}

// TestServerErrorPaths is the table over the upload routes' failure modes:
// status codes, bodies, and per-item result codes of partial batches.
func TestServerErrorPaths(t *testing.T) {
	h, spec := capped(t)
	srv := httptest.NewServer(NewServer(h))
	defer srv.Close()

	okUpload := `{"taskId":"` + spec.ID + `","deviceId":"d1","records":[]}`

	tests := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantInBody string
	}{
		{
			name: "malformed JSON single", path: "/api/uploads",
			body: `{not json`, wantStatus: http.StatusBadRequest, wantInBody: "decode request",
		},
		{
			name: "malformed JSON batch", path: "/api/uploads/batch",
			body: `{"uploads":[{]}`, wantStatus: http.StatusBadRequest, wantInBody: "decode request",
		},
		{
			name: "empty batch", path: "/api/uploads/batch",
			body: `{"uploads":[]}`, wantStatus: http.StatusBadRequest, wantInBody: "empty upload batch",
		},
		{
			name: "unknown task single", path: "/api/uploads",
			body: `{"taskId":"task-9999","deviceId":"d1"}`, wantStatus: http.StatusNotFound, wantInBody: "unknown task",
		},
		{
			name: "upload limit single", path: "/api/uploads",
			body: okUpload, wantStatus: http.StatusTooManyRequests, wantInBody: "upload limit",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := postJSON(t, srv.URL, tc.path, tc.body)
			if status != tc.wantStatus {
				t.Errorf("status = %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			if !strings.Contains(body, tc.wantInBody) {
				t.Errorf("body = %q, want it to contain %q", body, tc.wantInBody)
			}
		})
	}
}

// TestServerBatchPartialAcceptance: a mixed batch is admitted per item and
// the response body reports one coded result per upload.
func TestServerBatchPartialAcceptance(t *testing.T) {
	h := New()
	h.SetMaxUploadsPerTask(2) // one slot left after the first batch item
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("partial"))
	if err != nil {
		t.Fatal(err)
	}
	must(t, h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "d1"}))
	srv := httptest.NewServer(NewServer(h))
	defer srv.Close()

	batch := transport.UploadBatch{Uploads: []transport.Upload{
		{TaskID: spec.ID, DeviceID: "d1"},     // fits in the last slot
		{TaskID: "task-9999", DeviceID: "d1"}, // unknown task
		{TaskID: spec.ID, DeviceID: "ghost"},  // unknown device
		{TaskID: spec.ID, DeviceID: "d1"},     // over the cap
	}}
	raw, _ := json.Marshal(batch)
	status, body, _ := postJSON(t, srv.URL, "/api/uploads/batch", string(raw))
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", status, body)
	}
	var resp transport.UploadBatchResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Rejected != 3 {
		t.Errorf("accepted/rejected = %d/%d, want 1/3", resp.Accepted, resp.Rejected)
	}
	wantCodes := []string{
		transport.UploadOK, transport.UploadUnknownTask,
		transport.UploadUnknownDevice, transport.UploadLimit,
	}
	for i, want := range wantCodes {
		if resp.Results[i].Index != i || resp.Results[i].Code != want {
			t.Errorf("result[%d] = %+v, want code %s", i, resp.Results[i], want)
		}
	}
	if resp.Results[0].Error != "" || resp.Results[1].Error == "" {
		t.Errorf("error strings: accepted should be empty, rejected populated: %+v", resp.Results[:2])
	}
}

// blockingSink parks batch commits until released, to saturate the queue
// from a test deterministically. parked counts drain workers waiting at
// the gate.
type blockingSink struct {
	h      *Hive
	gate   chan struct{}
	once   sync.Once
	parked atomic.Int32
}

func (s *blockingSink) SubmitBatch(ups []transport.Upload) []error {
	s.parked.Add(1)
	<-s.gate
	s.parked.Add(-1)
	return s.h.SubmitBatch(ups)
}

func (s *blockingSink) release() { s.once.Do(func() { close(s.gate) }) }

// TestServerQueueFull: a saturated ingest queue answers 429 with a
// Retry-After hint on both upload routes, and /api/stats surfaces the
// queue gauges.
func TestServerQueueFull(t *testing.T) {
	h := New()
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("squeezed"))
	if err != nil {
		t.Fatal(err)
	}
	sink := &blockingSink{h: h, gate: make(chan struct{})}
	q := ingest.New(sink, ingest.Config{Capacity: 1, Workers: 1, RetryAfter: 2 * time.Second})
	// LIFO: on unwind the gate opens before Close waits on the worker.
	defer q.Close()
	defer sink.release()
	srv := httptest.NewServer(NewServer(h, WithIngestQueue(q)))
	defer srv.Close()

	upJSON := `{"taskId":"` + spec.ID + `","deviceId":"d1","records":[]}`
	post := func() { // fire-and-forget: these block until the sink gate opens
		resp, err := http.Post(srv.URL+"/api/uploads", "application/json", strings.NewReader(upJSON))
		if err == nil {
			resp.Body.Close()
		}
	}
	// Park the drain worker inside the sink, then occupy the single slot:
	// only then is the next submission guaranteed to be turned away.
	go post()
	waitServerFor(t, func() bool { return sink.parked.Load() == 1 })
	go post()
	waitServerFor(t, func() bool { return q.Stats().PendingBatches == 1 })

	for _, tc := range []struct{ name, path, body string }{
		{"single", "/api/uploads", upJSON},
		{"batch", "/api/uploads/batch", `{"uploads":[` + upJSON + `]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body, hdr := postJSON(t, srv.URL, tc.path, tc.body)
			if status != http.StatusTooManyRequests {
				t.Errorf("status = %d, want 429 (body %s)", status, body)
			}
			if hdr.Get("Retry-After") != "2" {
				t.Errorf("Retry-After = %q, want \"2\"", hdr.Get("Retry-After"))
			}
			if !strings.Contains(body, "queue full") {
				t.Errorf("body = %q, want queue-full error", body)
			}
		})
	}

	// Drain and check the gauges on /stats.
	sink.release()
	waitServerFor(t, func() bool { return q.Stats().PendingUploads == 0 })
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingest == nil {
		t.Fatal("stats.Ingest missing with a queue wired in")
	}
	if stats.Ingest.Accepted != 2 || stats.Ingest.Dropped != 2 || stats.Ingest.Capacity != 1 {
		t.Errorf("ingest gauges = %+v", stats.Ingest)
	}
	if stats.Uploads != 2 {
		t.Errorf("uploads = %d, want 2", stats.Uploads)
	}
}

// TestServerQueueClosed: submissions during shutdown drain answer 503.
func TestServerQueueClosed(t *testing.T) {
	h := New()
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("closing"))
	if err != nil {
		t.Fatal(err)
	}
	q := ingest.New(h, ingest.Config{})
	q.Close()
	srv := httptest.NewServer(NewServer(h, WithIngestQueue(q)))
	defer srv.Close()

	status, body, _ := postJSON(t, srv.URL, "/api/uploads",
		`{"taskId":"`+spec.ID+`","deviceId":"d1"}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503 (body %s)", status, body)
	}
}

// TestServerBatchThroughQueue: the happy path over HTTP with a live queue —
// per-item results come back after the group commit.
func TestServerBatchThroughQueue(t *testing.T) {
	h := New()
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("live"))
	if err != nil {
		t.Fatal(err)
	}
	q := ingest.New(h, ingest.Config{Capacity: 4, Workers: 2})
	defer q.Close()
	srv := httptest.NewServer(NewServer(h, WithIngestQueue(q)))
	defer srv.Close()

	cl := transport.NewClient(srv.URL)
	batch := transport.UploadBatch{Uploads: []transport.Upload{
		{TaskID: spec.ID, DeviceID: "d1", Records: []transport.UploadRecord{{Sensor: "gps"}}},
		{TaskID: "task-9999", DeviceID: "d1"},
	}}
	var resp transport.UploadBatchResponse
	if err := cl.Do(context.Background(), http.MethodPost, "/api/uploads/batch", batch, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Rejected != 1 || resp.Results[1].Code != transport.UploadUnknownTask {
		t.Errorf("resp = %+v", resp)
	}
	ups, err := h.Uploads(spec.ID)
	if err != nil || len(ups) != 1 {
		t.Fatalf("uploads = %v, %v", ups, err)
	}
}

// waitServerFor polls cond for up to 5 seconds.
func waitServerFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestServerEvalCacheStats: with WithEvalCache the /api/stats response
// carries the evaluation-cache gauges; without it the field is absent.
func TestServerEvalCacheStats(t *testing.T) {
	cache := evalcache.NewLRU(1024)
	cache.Put("k", 1, 10)
	cache.Get("k")
	cache.Get("missing")
	cache.AddPruned(3)
	srv := httptest.NewServer(NewServer(New(), WithEvalCache(cache)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.EvalCache == nil {
		t.Fatal("stats.EvalCache missing with a cache wired in")
	}
	got := *stats.EvalCache
	want := EvalCacheStats{Entries: 1, Bytes: 10, Hits: 1, Misses: 1, Pruned: 3}
	if got != want {
		t.Errorf("eval cache gauges = %+v, want %+v", got, want)
	}

	bare := httptest.NewServer(NewServer(New()))
	defer bare.Close()
	_, body, _ := getJSON(t, bare.URL, "/api/stats")
	if strings.Contains(body, "eval_cache") {
		t.Errorf("stats without a cache should omit eval_cache: %s", body)
	}
}

// TestUploadsRouteStreamsHeldBytes: GET /api/tasks/{id}/uploads streams
// the held encodings, and the body is byte-identical to writeJSON of the
// uploads — what the route answered when it decoded and re-encoded them —
// for an empty task, for strings the encoder HTML-escapes, on a Hive that
// never restarted (whose uploads are the submitted values) and on one
// recovered from disk (whose uploads are decoded).
func TestUploadsRouteStreamsHeldBytes(t *testing.T) {
	ups := []transport.Upload{
		{DeviceID: "d1", Logs: []string{"<b>&amp;</b>", "ünï "}, Records: []transport.UploadRecord{
			{Sensor: "gps", TimeMillis: 1418031000000, Data: map[string]any{"lat": 45.7640, "lon": 4.8357, "html": "<script>&"}},
		}},
		{DeviceID: "d1", Records: []transport.UploadRecord{{Sensor: "battery", Data: map[string]any{"level": 0.5, "n": 3}}}},
		{DeviceID: "d1"},
	}
	writeJSONBody := func(v any) string {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		return rec.Body.String()
	}
	check := func(t *testing.T, h *Hive, task string, want string) {
		t.Helper()
		srv := httptest.NewServer(NewServer(h))
		defer srv.Close()
		status, body, hdr := getJSON(t, srv.URL, "/api/tasks/"+task+"/uploads")
		if status != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
			t.Errorf("status %d, Content-Type %q", status, hdr.Get("Content-Type"))
		}
		if body != want {
			t.Errorf("body\n%s\nwant\n%s", body, want)
		}
	}
	feed := func(h *Hive) (full, empty string) {
		must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
		a, _, err := h.PublishTask(taskSpec("full"))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := h.PublishTask(taskSpec("empty"))
		if err != nil {
			t.Fatal(err)
		}
		batch := append([]transport.Upload(nil), ups...)
		for i := range batch {
			batch[i].TaskID = a.ID
		}
		for _, err := range h.SubmitBatch(batch) {
			must(t, err)
		}
		return a.ID, b.ID
	}

	mem := New()
	full, empty := feed(mem)
	submitted := append([]transport.Upload(nil), ups...)
	for i := range submitted {
		submitted[i].TaskID = full
	}
	check(t, mem, full, writeJSONBody(submitted))
	check(t, mem, empty, writeJSONBody([]transport.Upload{}))
	if writeJSONBody([]transport.Upload{}) != "[]\n" {
		t.Fatal("writeJSON of no uploads is not []")
	}

	dir := filepath.Join(t.TempDir(), "store")
	h, s, err := recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	feed(h)
	must(t, s.Close())
	h, s, err = recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	decoded, err := h.Uploads(full)
	if err != nil {
		t.Fatal(err)
	}
	check(t, h, full, writeJSONBody(decoded))
	check(t, h, empty, writeJSONBody([]transport.Upload{}))
}

// getJSON fetches a path and returns status, body and headers.
func getJSON(t *testing.T, url, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data), resp.Header
}
