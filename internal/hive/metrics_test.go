package hive

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"apisense/internal/apierr"
	"apisense/internal/ingest"
	"apisense/internal/obs"
	"apisense/internal/transport"
)

// TestMetricsEndpoint drives a fully wired server — journal, ingest
// queue, metrics — and checks that GET /metrics serves the documented
// series in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	h, j, err := recoverDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	q := ingest.New(h, ingest.Config{Capacity: 8, MaxBatch: 8, Workers: 1})
	defer q.Close()

	srv := httptest.NewServer(NewServer(h,
		WithIngestQueue(q),
		WithMetrics(NewMetrics(obs.NewRegistry())),
	))
	defer srv.Close()

	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("observed"))
	if err != nil {
		t.Fatal(err)
	}

	batch, _ := json.Marshal(transport.UploadBatch{Uploads: []transport.Upload{
		{TaskID: spec.ID, DeviceID: "d1"},
		{TaskID: spec.ID, DeviceID: "d1"},
	}})
	status, body, _ := postJSON(t, srv.URL, "/api/uploads/batch", string(batch))
	if status != http.StatusOK {
		t.Fatalf("batch submit: status %d, body %s", status, body)
	}
	// The queue drains asynchronously; wait for the commit to land and for
	// the queue to count it (it does so after the Hive admits the uploads).
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Uploads != 2 || q.Stats().BatchesDrained != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("uploads never drained: stats %+v", h.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// One coded failure, so the error-code counter has a series.
	resp, err := http.Get(srv.URL + "/api/tasks/task-9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown task: status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)

	wantSeries := []string{
		// Hive state gauges and the per-task upload counter.
		"apisense_hive_devices 1",
		"apisense_hive_tasks 1",
		"apisense_hive_uploads 2",
		`apisense_hive_task_uploads_total{task="` + spec.ID + `"} 2`,
		// Journal durability: register + publish + one group commit each
		// fsynced; exact count is an implementation detail, presence and
		// type are the contract.
		"# TYPE apisense_journal_fsyncs_total counter",
		// Ingest queue instruments: the batch of two drained in one group
		// commit.
		"apisense_ingest_pending_uploads 0",
		"apisense_ingest_uploads_accepted_total 2",
		"apisense_ingest_group_commits_total 1",
		`apisense_ingest_drain_seconds_bucket{le="+Inf"} 1`,
		"apisense_ingest_drain_seconds_count 1",
		`apisense_ingest_group_size_uploads_sum 2`,
		// HTTP surface: per-route request counters and latency histograms,
		// per-code error counter.
		`apisense_http_requests_total{route="POST /api/uploads/batch",code="200"} 1`,
		`apisense_http_requests_total{route="GET /api/tasks/{id}",code="404"} 1`,
		`apisense_http_request_seconds_bucket{route="POST /api/uploads/batch",le="+Inf"} 1`,
		`apisense_http_errors_total{code="hive.unknown_task"} 1`,
	}
	for _, w := range wantSeries {
		if !strings.Contains(out, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}

	// Exposition-format sanity: every family has HELP and TYPE, every
	// non-comment line is `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") < 1 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	for _, fam := range []string{"apisense_hive_devices", "apisense_ingest_drain_seconds",
		"apisense_http_requests_total", "apisense_journal_fsyncs_total"} {
		if !strings.Contains(out, "# HELP "+fam+" ") {
			t.Errorf("family %s has no HELP", fam)
		}
		if !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Errorf("family %s has no TYPE", fam)
		}
	}

	// The family set is the contract dashboards and alerts are written
	// against: each server configuration serves exactly these families,
	// with these kinds.
	hiveFamilies := []string{
		"apisense_hive_devices gauge",
		"apisense_hive_task_uploads_total counter",
		"apisense_hive_tasks gauge",
		"apisense_hive_uploads gauge",
		"apisense_http_errors_total counter",
		"apisense_http_request_seconds histogram",
		"apisense_http_requests_total counter",
	}
	queueFamilies := []string{
		"apisense_ingest_capacity_batches gauge",
		"apisense_ingest_drain_seconds histogram",
		"apisense_ingest_group_commits_total counter",
		"apisense_ingest_group_size_uploads histogram",
		"apisense_ingest_pending_batches gauge",
		"apisense_ingest_pending_uploads gauge",
		"apisense_ingest_uploads_accepted_total counter",
		"apisense_ingest_uploads_dropped_total counter",
		"apisense_ingest_uploads_rejected_total counter",
	}
	storeFamilies := []string{
		"apisense_journal_fsyncs_total counter",
		"apisense_store_last_snapshot_seconds gauge",
		"apisense_store_log_bytes gauge",
		"apisense_store_replay_records gauge",
		"apisense_store_replay_seconds gauge",
		"apisense_store_segments gauge",
		"apisense_store_shard_fsyncs_total counter",
		"apisense_store_snapshot_age_seconds gauge",
		"apisense_store_snapshot_failures_total counter",
		"apisense_store_snapshots_total counter",
	}
	for _, tc := range []struct {
		name  string
		queue bool
		want  []string
	}{
		{"store, queue and metrics", true, slices.Concat(hiveFamilies, queueFamilies, storeFamilies)},
		{"store and metrics, no queue", false, slices.Concat(hiveFamilies, storeFamilies)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, j, err := recoverDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			opts := []ServerOption{WithMetrics(NewMetrics(obs.NewRegistry()))}
			if tc.queue {
				q := ingest.New(h, ingest.Config{})
				defer q.Close()
				opts = append(opts, WithIngestQueue(q))
			}
			rec := httptest.NewRecorder()
			NewServer(h, opts...).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			var got []string
			for _, line := range strings.Split(rec.Body.String(), "\n") {
				if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
					got = append(got, fam)
				}
			}
			slices.Sort(got)
			slices.Sort(tc.want)
			if !slices.Equal(got, tc.want) {
				t.Errorf("/metrics families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// TestWriteErrorStatusMapping is the table over the whole error taxonomy:
// every sentinel's HTTP status and wire code, wrapped or not, plus the
// uncoded fallback.
func TestWriteErrorStatusMapping(t *testing.T) {
	s := NewServer(New())
	tests := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
	}{
		{"unknown device", ErrUnknownDevice, 404, "hive.unknown_device"},
		{"unknown task", ErrUnknownTask, 404, "hive.unknown_task"},
		{"not assigned", ErrNotAssigned, 403, "hive.not_assigned"},
		{"no qualifying devices", ErrNoQualifyingDevices, 409, "hive.no_qualifying_devices"},
		{"upload limit", ErrUploadLimit, 429, "hive.upload_limit"},
		{"invalid device", ErrInvalidDevice, 400, "hive.invalid_device"},
		{"invalid spec", transport.ErrInvalidSpec, 400, "transport.invalid_spec"},
		{"batch too large", ingest.ErrBatchTooLarge, 413, "ingest.batch_too_large"},
		{"queue closed", ingest.ErrClosed, 503, "ingest.closed"},
		{"queue full", ingest.ErrQueueFull, 429, "ingest.queue_full"},
		{"journal io", ErrJournalIO, 500, "hive.journal_io"},
		{"corrupt journal", ErrCorruptJournal, 500, "hive.corrupt_journal"},
		{"bad request", errBadRequest, 400, "hive.bad_request"},
		{"empty batch", errEmptyBatch, 400, "hive.empty_batch"},
		{"wrapped keeps mapping", fmt.Errorf("ctx: %w", ErrUploadLimit), 429, "hive.upload_limit"},
		{"doubly wrapped", fmt.Errorf("a: %w", fmt.Errorf("b: %w", ErrUnknownDevice)), 404, "hive.unknown_device"},
		{"uncoded is a 500", errors.New("mystery"), 500, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.writeError(rec, httptest.NewRequest(http.MethodGet, "/test", nil), tc.err)
			if rec.Code != tc.wantStatus {
				t.Errorf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			var body struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("body %q: %v", rec.Body.String(), err)
			}
			if body.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", body.Code, tc.wantCode)
			}
			if body.Error == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestUploadResultCodes is the table over the per-item wire codes of
// batch responses.
func TestUploadResultCodes(t *testing.T) {
	tests := []struct {
		err  error
		want string
	}{
		{nil, transport.UploadOK},
		{ErrUnknownTask, transport.UploadUnknownTask},
		{fmt.Errorf("ctx: %w", ErrUnknownTask), transport.UploadUnknownTask},
		{ErrUnknownDevice, transport.UploadUnknownDevice},
		{ErrNotAssigned, transport.UploadNotAssigned},
		{ErrUploadLimit, transport.UploadLimit},
		{errors.New("disk on fire"), transport.UploadFailed},
	}
	for _, tc := range tests {
		if got := uploadResultCode(tc.err); got != tc.want {
			t.Errorf("uploadResultCode(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestClientBranchesOnCodedErrors: the cross-process contract — a client
// talking to a real server over HTTP can errors.Is against the hive
// sentinels, because the wire code round-trips through ErrStatus.
func TestClientBranchesOnCodedErrors(t *testing.T) {
	h := New()
	srv := httptest.NewServer(NewServer(h))
	defer srv.Close()
	client := transport.NewClient(srv.URL)

	err := client.Do(context.Background(), http.MethodGet, "/api/tasks/task-404", nil, nil)
	if err == nil {
		t.Fatal("expected an error for an unknown task")
	}
	if !errors.Is(err, ErrUnknownTask) {
		t.Errorf("errors.Is(err, ErrUnknownTask) = false for %v", err)
	}
	if errors.Is(err, ErrUnknownDevice) {
		t.Errorf("errors.Is matched the wrong sentinel for %v", err)
	}
	var st *transport.ErrStatus
	if !errors.As(err, &st) {
		t.Fatalf("no ErrStatus in chain of %v", err)
	}
	if st.ErrCode != "hive.unknown_task" {
		t.Errorf("ErrCode = %q, want hive.unknown_task", st.ErrCode)
	}
	if apierr.Code(err) != "hive.unknown_task" {
		t.Errorf("apierr.Code(err) = %q", apierr.Code(err))
	}
}

// TestMetricsDisabledServerUnchanged: without WithMetrics there is no
// /metrics route and error handling is unaffected.
func TestMetricsDisabledServerUnchanged(t *testing.T) {
	srv := httptest.NewServer(NewServer(New()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics on unmetered server: status %d, want 404", resp.StatusCode)
	}
}
