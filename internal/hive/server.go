package hive

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"apisense/internal/apierr"
	"apisense/internal/ingest"
	"apisense/internal/otrace"
	"apisense/internal/transport"
)

// Server exposes a Hive over HTTP/JSON. Routes:
//
//	POST   /api/devices               register a device
//	GET    /api/devices               list devices
//	DELETE /api/devices/{id}          unregister
//	GET    /api/devices/{id}/tasks    tasks offloaded to the device
//	POST   /api/tasks                 publish a task (returns spec + recruits)
//	GET    /api/tasks/{id}            fetch a task
//	GET    /api/tasks/{id}/uploads    collected uploads
//	POST   /api/uploads               submit one upload
//	POST   /api/uploads/batch         submit a batch (per-item results)
//	GET    /api/stats                 platform statistics
//	GET    /metrics                   Prometheus text exposition (WithMetrics only)
//	GET    /healthz                   liveness probe (always 200 while serving)
//	GET    /readyz                    readiness probe (503 when draining or queue closed)
//	GET    /debug/traces              recent traces, newest first (WithTracer only)
//	GET    /debug/traces/{id}         one trace's full span tree (WithTracer only)
//
// With WithIngestQueue both upload routes go through the bounded ingest
// queue: a full queue answers 429 Too Many Requests with a Retry-After
// header instead of admitting unbounded work.
//
// With WithTracer every route opens a server span (named "http.<pattern>")
// that adopts the client's trace when the request carries a W3C
// traceparent header, records the response status and — on failure — the
// apierr code, and hands its context to the ingest queue and Hive so the
// whole ingestion path lands in one trace. With WithLogger each request
// is logged structurally with trace_id/span_id correlation.
//
// Error responses are JSON objects {"error": message, "code": code} where
// code is the stable apierr code of the failure (see internal/apierr and
// docs/OPERATIONS.md); transport.Client surfaces it on ErrStatus so
// callers can branch with errors.Is against the hive sentinels.
type Server struct {
	hive     *Hive
	queue    *ingest.Queue  // nil = synchronous ingestion
	metrics  *Metrics       // nil = no /metrics route, no HTTP instruments
	tracer   *otrace.Tracer // nil = no tracing, no /debug/traces routes
	logger   *slog.Logger   // nil = no request logging
	draining atomic.Bool    // readiness: set by SetDraining at shutdown
	mux      *http.ServeMux
}

var _ http.Handler = (*Server)(nil)

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithIngestQueue routes POST /api/uploads and /api/uploads/batch through
// q, adding backpressure (429 + Retry-After when full) and group-commit
// draining; /api/stats grows the queue gauges. The caller owns q's
// lifecycle (Close on shutdown, after the HTTP server stops).
func WithIngestQueue(q *ingest.Queue) ServerOption {
	return func(s *Server) { s.queue = q }
}

// WithMetrics serves m's registry at GET /metrics and instruments every
// route with request, latency and error-code series. NewServer binds the
// Hive gauges, the store series when a store is attached and the ingest
// queue series when WithIngestQueue is set onto the same registry, so one
// option lights up the whole observability surface described in
// docs/OPERATIONS.md.
func WithMetrics(m *Metrics) ServerOption {
	return func(s *Server) { s.metrics = m }
}

// WithTracer opens a server span per request on t, attaches t to the Hive
// so store appends and snapshot folds join the request trace, serves the
// collected traces under GET /debug/traces, and — when WithMetrics is
// also set — exports the slowest-trace exemplar gauge. Nil t disables
// tracing (same as omitting the option).
func WithTracer(t *otrace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithLogger emits one structured log record per request (level by
// status: debug <400, warn 4xx, error 5xx) plus one per error response
// carrying the apierr code and telemetry-safe metadata. The handler is
// wrapped with otrace.NewLogHandler, so records logged under a traced
// request automatically carry trace_id/span_id. Nil l disables logging.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) {
		if l == nil {
			return
		}
		s.logger = slog.New(otrace.NewLogHandler(l.Handler()))
	}
}

// NewServer wraps a Hive with its HTTP API.
func NewServer(h *Hive, opts ...ServerOption) *Server {
	s := &Server{hive: h, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics != nil {
		if s.queue != nil {
			s.metrics.bindQueue(s.queue)
		}
		s.metrics.BindHive(h)
		s.handle("GET /metrics", s.metrics.Registry().ServeHTTP)
	}
	if s.tracer != nil {
		h.SetTracer(s.tracer)
		if s.metrics != nil {
			s.tracer.BindObs(s.metrics.Registry())
		}
		s.handle("GET /debug/traces", s.handleListTraces)
		s.handle("GET /debug/traces/{id}", s.handleGetTrace)
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("POST /api/devices", s.handleRegister)
	s.handle("GET /api/devices", s.handleListDevices)
	s.handle("DELETE /api/devices/{id}", s.handleUnregister)
	s.handle("GET /api/devices/{id}/tasks", s.handleDeviceTasks)
	s.handle("POST /api/tasks", s.handlePublish)
	s.handle("GET /api/tasks/{id}", s.handleGetTask)
	s.handle("GET /api/tasks/{id}/uploads", s.handleUploadsOf)
	s.handle("POST /api/uploads", s.handleSubmitUpload)
	s.handle("POST /api/uploads/batch", s.handleSubmitBatch)
	s.handle("GET /api/stats", s.handleStats)
	return s
}

// handle registers a route, wrapping the handler with whichever
// observability instruments are switched on: the HTTP metrics, a server
// span per request (adopting the caller's W3C traceparent header so a
// device flush and the server-side work land in one trace), and one
// structured log record per request. The label is the registration
// pattern, not the request path — request paths carry IDs and would
// explode series cardinality (and leak device identifiers into telemetry).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	if s.metrics == nil && s.tracer == nil && s.logger == nil {
		s.mux.HandleFunc(pattern, h)
		return
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		var sp *otrace.ActiveSpan
		if s.tracer != nil {
			ctx := r.Context()
			if sc, ok := otrace.ParseTraceparent(r.Header.Get("traceparent")); ok {
				ctx = otrace.ContextWithSpanContext(ctx, sc)
			}
			ctx, sp = s.tracer.Start(ctx, "http."+pattern)
			r = r.WithContext(ctx)
		}
		h(sw, r)
		if sp != nil {
			sp.SetAttr(otrace.Int("status", sw.status))
			if sw.errCode != "" {
				sp.SetErr(sw.errCode)
			}
			sp.End()
		}
		s.metrics.observeRequest(pattern, sw.status, t0)
		s.logRequest(r, pattern, sw, time.Since(t0))
	})
}

// logRequest emits the per-request structured record. Level tracks the
// response class: debug for success, warn for client errors, error for
// server errors. Attributes are telemetry-safe (route pattern, status,
// duration, apierr code — never raw paths or device identifiers), and the
// otrace handler adds trace_id/span_id from the request context.
func (s *Server) logRequest(r *http.Request, pattern string, sw *statusWriter, d time.Duration) {
	if s.logger == nil {
		return
	}
	lvl := slog.LevelDebug
	switch {
	case sw.status >= 500:
		lvl = slog.LevelError
	case sw.status >= 400:
		lvl = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("route", pattern),
		slog.Int("status", sw.status),
		slog.Duration("duration", d),
	}
	if sw.errCode != "" {
		attrs = append(attrs, slog.String("code", sw.errCode))
	}
	s.logger.LogAttrs(r.Context(), lvl, "request", attrs...)
}

// statusWriter captures the status code a handler writes so the request
// counter can label it, and the apierr code of an error response so the
// server span and log record can carry it. Handlers that never call
// WriteHeader implicitly answer 200, which is the field's initial value.
type statusWriter struct {
	http.ResponseWriter
	status  int
	errCode string
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errBadRequest codes request bodies the server cannot decode.
var errBadRequest = apierr.New("hive.bad_request", apierr.Validation, "hive: bad request")

// errEmptyBatch codes batch submissions with zero uploads.
var errEmptyBatch = apierr.New("hive.empty_batch", apierr.Validation, "hive: empty upload batch")

// errorResponse is the JSON error body: a human-readable message plus the
// stable apierr code for programmatic handling.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps err's apierr category to an HTTP status (500 for
// uncoded errors), answers {"error", "code"}, counts the code on the
// error-code series when metrics are on, stamps it on the request's
// server span, and logs it with the error's telemetry-safe metadata.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	code := apierr.Code(err)
	s.metrics.recordErrorCode(code)
	if sw, ok := w.(*statusWriter); ok {
		sw.errCode = code
	}
	s.logError(r, err, code)
	writeJSON(w, apierr.HTTPStatus(err), errorResponse{Error: err.Error(), Code: code})
}

// logError emits one structured record per error response: the stable
// apierr code plus the error's telemetry-safe metadata, in sorted key
// order so records render deterministically. Trace correlation comes from
// the request context via the otrace log handler.
func (s *Server) logError(r *http.Request, err error, code string) {
	if s.logger == nil {
		return
	}
	attrs := []slog.Attr{slog.String("code", code)}
	var ae *apierr.Error
	if errors.As(err, &ae) {
		meta := ae.Meta()
		keys := make([]string, 0, len(meta))
		for k := range meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			attrs = append(attrs, slog.String(k, meta[k]))
		}
	}
	s.logger.LogAttrs(r.Context(), slog.LevelWarn, "request error", attrs...)
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 32<<20))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: decode request: %w", errBadRequest, err)
	}
	return nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var info transport.DeviceInfo
	if err := decode(r, &info); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.hive.RegisterDevice(info); err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDevices(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.hive.Devices())
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if err := s.hive.UnregisterDevice(r.PathValue("id")); err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "unregistered"})
}

func (s *Server) handleDeviceTasks(w http.ResponseWriter, r *http.Request) {
	tasks, err := s.hive.TasksFor(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if tasks == nil {
		tasks = []transport.TaskSpec{}
	}
	writeJSON(w, http.StatusOK, tasks)
}

// PublishResponse is the result of POST /api/tasks.
type PublishResponse struct {
	Task      transport.TaskSpec `json:"task"`
	Recruited []string           `json:"recruited"`
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var spec transport.TaskSpec
	if err := decode(r, &spec); err != nil {
		s.writeError(w, r, err)
		return
	}
	published, recruited, err := s.hive.PublishTask(spec)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, PublishResponse{Task: published, Recruited: recruited})
}

func (s *Server) handleGetTask(w http.ResponseWriter, r *http.Request) {
	spec, err := s.hive.Task(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, spec)
}

// handleUploadsOf streams the held encodings as the JSON array: each is
// json.Marshal's output for its upload, so the body is byte-identical to
// writeJSON of the decoded uploads, without the decode and re-encode.
func (s *Server) handleUploadsOf(w http.ResponseWriter, r *http.Request) {
	raws, err := s.hive.uploadsJSON(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteByte('[')
	for i, raw := range raws {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(raw)
	}
	bw.WriteString("]\n")
	_ = bw.Flush() // like writeJSON: the status is sent, a failed write has no one to tell
}

func (s *Server) handleSubmitUpload(w http.ResponseWriter, r *http.Request) {
	var u transport.Upload
	if err := decode(r, &u); err != nil {
		s.writeError(w, r, err)
		return
	}
	var err error
	if s.queue != nil {
		var errs []error
		errs, err = s.queue.Submit(r.Context(), []transport.Upload{u})
		if err == nil {
			err = errs[0]
		}
	} else {
		err = s.hive.SubmitUpload(u)
	}
	if errors.Is(err, ingest.ErrQueueFull) {
		s.writeQueueFull(w, r, err)
		return
	}
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "accepted"})
}

// handleSubmitBatch ingests an UploadBatch. Admission is per item — the
// response always carries one result per upload — except when the ingest
// queue is saturated, which rejects the whole batch with 429 and a
// Retry-After hint before any work is done.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var batch transport.UploadBatch
	if err := decode(r, &batch); err != nil {
		s.writeError(w, r, err)
		return
	}
	if len(batch.Uploads) == 0 {
		s.writeError(w, r, errEmptyBatch)
		return
	}
	var errs []error
	if s.queue != nil {
		var err error
		errs, err = s.queue.Submit(r.Context(), batch.Uploads)
		if errors.Is(err, ingest.ErrQueueFull) {
			s.writeQueueFull(w, r, err)
			return
		}
		if err != nil {
			s.writeError(w, r, err)
			return
		}
	} else {
		errs = s.hive.SubmitBatchContext(r.Context(), batch.Uploads)
	}
	resp := transport.UploadBatchResponse{Results: make([]transport.UploadResult, len(errs))}
	for i, err := range errs {
		res := transport.UploadResult{Index: i, Code: uploadResultCode(err)}
		if err != nil {
			res.Error = err.Error()
			resp.Rejected++
		} else {
			resp.Accepted++
		}
		resp.Results[i] = res
	}
	writeJSON(w, http.StatusOK, resp)
}

// uploadResultCode maps a per-item admission error to its wire code.
func uploadResultCode(err error) string {
	switch {
	case err == nil:
		return transport.UploadOK
	case errors.Is(err, ErrUnknownTask):
		return transport.UploadUnknownTask
	case errors.Is(err, ErrUnknownDevice):
		return transport.UploadUnknownDevice
	case errors.Is(err, ErrNotAssigned):
		return transport.UploadNotAssigned
	case errors.Is(err, ErrUploadLimit):
		return transport.UploadLimit
	default:
		return transport.UploadFailed
	}
}

// writeQueueFull answers backpressure: 429 with the queue's Retry-After
// hint so producers know when to resubmit.
func (s *Server) writeQueueFull(w http.ResponseWriter, r *http.Request, err error) {
	secs := int(s.queue.RetryAfter().Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	code := apierr.Code(err)
	s.metrics.recordErrorCode(code)
	if sw, ok := w.(*statusWriter); ok {
		sw.errCode = code
	}
	s.logError(r, err, code)
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Code: code})
}

// errUnknownTrace codes GET /debug/traces/{id} lookups for a trace the
// bounded span store does not hold (never collected, or already evicted).
var errUnknownTrace = apierr.New("hive.unknown_trace", apierr.NotFound, "hive: unknown trace")

// TraceResponse is the result of GET /debug/traces/{id}: the trace's
// spans assembled into parent→child trees, roots first, siblings in
// start-time order.
type TraceResponse struct {
	TraceID string             `json:"traceId"`
	Spans   []*otrace.SpanNode `json:"spans"`
}

func (s *Server) handleListTraces(w http.ResponseWriter, _ *http.Request) {
	sums := s.tracer.Store().Summaries()
	if sums == nil {
		sums = []otrace.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, sums)
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id, ok := otrace.ParseTraceID(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, fmt.Errorf("%w: malformed trace id", errBadRequest))
		return
	}
	spans, ok := s.tracer.Store().Spans(id)
	if !ok {
		s.writeError(w, r, errUnknownTrace)
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{TraceID: id.String(), Spans: otrace.Assemble(spans)})
}

// SetDraining flips the /readyz readiness signal. Call with true before
// stopping the HTTP listener so load balancers stop routing new work
// while in-flight requests and the ingest queue drain.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness: 503 while the server is draining for
// shutdown or once the ingest queue has been closed, 200 otherwise. The
// body names the failing gate so probes are debuggable from logs alone.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.queue != nil && s.queue.Closed():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "queue-closed"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.hive.Stats()
	if s.queue != nil {
		qs := s.queue.Stats()
		st.Ingest = &qs
	}
	if ss, ok := s.hive.StoreStats(); ok {
		st.Store = &ss
	}
	writeJSON(w, http.StatusOK, st)
}
