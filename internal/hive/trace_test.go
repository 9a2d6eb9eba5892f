package hive

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"apisense/internal/device"
	"apisense/internal/hive/store"
	"apisense/internal/ingest"
	"apisense/internal/obs"
	"apisense/internal/otrace"
	"apisense/internal/transport"
)

// TestEndToEndUploadTrace drives one BatchUploader flush — including a 429
// backpressure retry hop — through the HTTP server, the ingest queue, the
// group commit and the store append, and asserts that every hop lands in a
// single trace with the expected parent/child/link structure.
func TestEndToEndUploadTrace(t *testing.T) {
	st, err := store.OpenSegmented(t.TempDir(), store.SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := RecoverFrom(st)
	if err != nil {
		t.Fatal(err)
	}
	tracer := otrace.New(otrace.Config{Store: otrace.NewSpanStore(64)})
	q := ingest.New(h, ingest.Config{Capacity: 8, MaxBatch: 64, Workers: 1, Tracer: tracer})
	hs := NewServer(h, WithIngestQueue(q), WithTracer(tracer))

	// The middleware rejects the FIRST batch POST with 429 before it
	// reaches the server, recording each attempt's traceparent header —
	// the retry must resubmit under the same trace identity.
	var (
		mu       sync.Mutex
		parents  []string
		rejected bool
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/uploads/batch" {
			mu.Lock()
			parents = append(parents, r.Header.Get("traceparent"))
			first := !rejected
			rejected = true
			mu.Unlock()
			if first {
				w.Header().Set("Retry-After", "0")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprintln(w, `{"error":"queue full","code":"ingest.queue_full"}`)
				return
			}
		}
		hs.ServeHTTP(w, r)
	}))
	defer ts.Close()

	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("trace-task"))
	if err != nil {
		t.Fatal(err)
	}

	up := device.NewBatchUploader(transport.NewClient(ts.URL), device.UploaderConfig{
		BatchSize: 1, BaseDelay: time.Millisecond, Seed: 7, Tracer: tracer,
	})
	resp, err := up.Add(context.Background(), transport.Upload{
		TaskID: spec.ID, DeviceID: "d1",
		Records: []transport.UploadRecord{{Sensor: "gps"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp == nil || resp.Accepted != 1 {
		t.Fatalf("flush response = %+v, want 1 accepted", resp)
	}
	if up.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1 backpressure retry", up.Retries)
	}
	q.Close() // drain workers exit, so the commit-side spans are recorded
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if len(parents) != 2 || parents[0] == "" || parents[0] != parents[1] {
		t.Fatalf("traceparent must be identical across the 429 retry, got %q", parents)
	}
	sc, ok := otrace.ParseTraceparent(parents[0])
	if !ok {
		t.Fatalf("uploader sent a malformed traceparent %q", parents[0])
	}

	spans, ok := tracer.Store().Spans(sc.TraceID)
	if !ok {
		t.Fatalf("no spans collected for trace %s", sc.TraceID)
	}
	byName := map[string]otrace.Span{}
	for _, sp := range spans {
		if sp.TraceID != sc.TraceID {
			t.Fatalf("span %s has trace %s, want %s", sp.Name, sp.TraceID, sc.TraceID)
		}
		byName[sp.Name] = sp
	}
	for _, want := range []string{
		"device.flush", "http.POST /api/uploads/batch",
		"ingest.enqueue", "ingest.group_commit", "store.append",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace is missing span %q (have %v)", want, spanNames(spans))
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	flush := byName["device.flush"]
	if !flush.Parent.IsZero() {
		t.Errorf("device.flush must be the trace root, has parent %s", flush.Parent)
	}
	if !hasAttr(flush, "retries", "1") {
		t.Errorf("device.flush should record retries=1, attrs: %+v", flush.Attrs)
	}
	httpSpan := byName["http.POST /api/uploads/batch"]
	if httpSpan.Parent != flush.SpanID {
		t.Errorf("server span parent = %s, want the client flush span %s", httpSpan.Parent, flush.SpanID)
	}
	enq := byName["ingest.enqueue"]
	if enq.Parent != httpSpan.SpanID {
		t.Errorf("enqueue parent = %s, want the server span %s", enq.Parent, httpSpan.SpanID)
	}
	gc := byName["ingest.group_commit"]
	if gc.Parent != enq.SpanID {
		t.Errorf("group commit parent = %s, want the enqueue span %s", gc.Parent, enq.SpanID)
	}
	linked := false
	for _, l := range gc.Links {
		if l.SpanID == enq.SpanID {
			linked = true
		}
	}
	if !linked {
		t.Errorf("group commit must link the coalesced enqueue span, links: %+v", gc.Links)
	}
	app := byName["store.append"]
	if app.Parent != gc.SpanID {
		t.Errorf("store append parent = %s, want the group commit span %s", app.Parent, gc.SpanID)
	}
}

func spanNames(spans []otrace.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

func hasAttr(sp otrace.Span, k, v string) bool {
	for _, a := range sp.Attrs {
		if a.Key == k && a.Value == v {
			return true
		}
	}
	return false
}

// TestDebugTraceEndpoints exercises GET /debug/traces and
// GET /debug/traces/{id}, including the malformed and unknown-ID error
// paths.
func TestDebugTraceEndpoints(t *testing.T) {
	h := New()
	tracer := otrace.New(otrace.Config{Store: otrace.NewSpanStore(16)})
	hs := NewServer(h, WithTracer(tracer))
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		hs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/api/stats"); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}

	rec := get("/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("list traces: %d", rec.Code)
	}
	var sums []otrace.TraceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sums); err != nil {
		t.Fatalf("decode summaries %q: %v", rec.Body.String(), err)
	}
	// The /debug/traces request itself may already be collected; the
	// /api/stats trace must be among the summaries.
	var statsTrace *otrace.TraceSummary
	for i := range sums {
		if sums[i].Root == "http.GET /api/stats" {
			statsTrace = &sums[i]
		}
	}
	if statsTrace == nil {
		t.Fatalf("no summary with root http.GET /api/stats in %+v", sums)
	}

	rec = get("/debug/traces/" + statsTrace.TraceID.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("get trace: %d body %s", rec.Code, rec.Body.String())
	}
	var tr TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "http.GET /api/stats" {
		t.Fatalf("trace tree = %+v, want one http.GET /api/stats root", tr.Spans)
	}
	if !hasAttr(tr.Spans[0].Span, "status", "200") {
		t.Fatalf("server span should record status=200, attrs: %+v", tr.Spans[0].Attrs)
	}

	rec = get("/debug/traces/not-a-trace-id")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed id: %d, want 400", rec.Code)
	}
	rec = get("/debug/traces/abababababababababababababababab")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", rec.Code)
	}
	var er struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "hive.unknown_trace" {
		t.Fatalf("unknown-trace body %q, want code hive.unknown_trace", rec.Body.String())
	}
}

// TestHealthAndReadiness covers the liveness and readiness probes across
// the draining and queue-closed gates.
func TestHealthAndReadiness(t *testing.T) {
	h := New()
	q := ingest.New(h, ingest.Config{Capacity: 4})
	hs := NewServer(h, WithIngestQueue(q))
	probe := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		hs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body struct {
			Status string `json:"status"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body.Status
	}

	if code, status := probe("/healthz"); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz = %d %q", code, status)
	}
	if code, status := probe("/readyz"); code != http.StatusOK || status != "ready" {
		t.Fatalf("readyz = %d %q, want ready", code, status)
	}
	hs.SetDraining(true)
	if code, status := probe("/readyz"); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("draining readyz = %d %q", code, status)
	}
	if code, _ := probe("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz must stay 200 while draining, got %d", code)
	}
	hs.SetDraining(false)
	if code, _ := probe("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after undrain = %d", code)
	}
	q.Close()
	if code, status := probe("/readyz"); code != http.StatusServiceUnavailable || status != "queue-closed" {
		t.Fatalf("closed-queue readyz = %d %q", code, status)
	}
}

// TestConcurrentScrapesDuringIngest hammers the batch endpoint from several
// goroutines while scraping /metrics concurrently (run under -race), then
// checks that two quiesced scrapes are byte-identical — family and series
// ordering must be deterministic no matter what the writers were doing.
// The queue row drains through two workers, so the Hive's group-commit
// observations race the scrapes too.
func TestConcurrentScrapesDuringIngest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue bool
	}{{"direct", false}, {"queue", true}} {
		t.Run(tc.name, func(t *testing.T) { concurrentScrapesDuringIngest(t, tc.queue) })
	}
}

func concurrentScrapesDuringIngest(t *testing.T, withQueue bool) {
	h := New()
	opts := []ServerOption{WithMetrics(NewMetrics(obs.NewRegistry()))}
	var q *ingest.Queue
	if withQueue {
		q = ingest.New(h, ingest.Config{Capacity: 16, MaxBatch: 8, Workers: 2})
		defer q.Close()
		opts = append(opts, WithIngestQueue(q))
	}
	hs := NewServer(h, opts...)
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("scrape-task"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(transport.UploadBatch{Uploads: []transport.Upload{{
		TaskID: spec.ID, DeviceID: "d1", Records: []transport.UploadRecord{{Sensor: "gps"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/api/uploads/batch", bytes.NewReader(body))
				hs.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("batch submit: %d", rec.Code)
					return
				}
			}
		}()
	}
	scrape := func() string {
		rec := httptest.NewRecorder()
		hs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("scrape: %d", rec.Code)
		}
		return rec.Body.String()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				scrape()
			}
		}()
	}
	wg.Wait()
	if q != nil {
		// Close waits out the drain workers, so the queue's counters are
		// final before the scrapes below.
		q.Close()
	}

	// The scrape instruments itself (the GET /metrics counters advance on
	// every request), so values cannot be byte-compared — the exposition
	// STRUCTURE can: the same families and series, in the same order.
	normalize := func(s string) string {
		var b strings.Builder
		for _, line := range strings.Split(s, "\n") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 && !strings.HasPrefix(line, "#") {
				line = line[:i]
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
		return b.String()
	}
	first, second := scrape(), scrape()
	if normalize(first) != normalize(second) {
		t.Fatalf("quiesced scrapes order series differently:\n--- first\n%s\n--- second\n%s", first, second)
	}
	if q == nil {
		return
	}
	// The Hive observed each group commit the queue counted, and all 200
	// uploads in them.
	commits := q.Stats().BatchesDrained
	for _, w := range []string{
		fmt.Sprintf("apisense_ingest_group_commits_total %d\n", commits),
		fmt.Sprintf("apisense_ingest_drain_seconds_count %d\n", commits),
		"apisense_ingest_group_size_uploads_sum 200\n",
	} {
		if !strings.Contains(second, w) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(w))
		}
	}
}
