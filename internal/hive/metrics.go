package hive

import (
	"strconv"
	"time"

	"apisense/internal/ingest"
	"apisense/internal/obs"
)

// Metrics instruments the Hive HTTP surface and registry state for the
// /metrics endpoint. Build one with NewMetrics, hand it to NewServer via
// WithMetrics, and the server wires everything else: registry gauges,
// store series, ingest queue series (with WithIngestQueue) and per-route
// HTTP request/latency/error-code counters. It is the one owner of every
// series the Hive serves: neither the queue nor the engine keeps metrics.
//
// Telemetry safety: label values are route patterns, task IDs, status
// codes and error codes — never device or user identifiers.
//
// Concurrency: immutable after NewMetrics; all hooks delegate to obs
// atomics and are safe for concurrent use. Every method is a no-op on a
// nil receiver, so unmetered servers pay nothing.
type Metrics struct {
	reg *obs.Registry

	// taskUploads counts admitted uploads per task ID:
	// apisense_hive_task_uploads_total{task}.
	taskUploads *obs.CounterVec

	// httpRequests, httpSeconds and httpErrors are the HTTP-surface
	// instruments, labelled by registered route pattern (never raw URL
	// paths, which are unbounded) and, for errors, by apierr code.
	httpRequests *obs.CounterVec
	httpSeconds  *obs.HistogramVec
	httpErrors   *obs.CounterVec

	// drainSeconds and groupSize time and size each group commit the
	// ingest queue drains into the Hive. nil unless a queue is bound
	// (see bindQueue), so a queue-less Hive reads no clock for them.
	drainSeconds *obs.Histogram
	groupSize    *obs.Histogram
}

// NewMetrics registers the Hive instrument families on reg and returns
// the handle for WithMetrics. Nil-safe: a nil registry yields a nil
// *Metrics, which disables all instrumentation.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		reg: reg,
		taskUploads: reg.CounterVec("apisense_hive_task_uploads_total",
			"Uploads admitted into the Hive store, by task ID.",
			"task"),
		httpRequests: reg.CounterVec("apisense_http_requests_total",
			"HTTP requests served, by registered route pattern and status code.",
			"route", "code"),
		httpSeconds: reg.HistogramVec("apisense_http_request_seconds",
			"HTTP request handling latency, by registered route pattern.",
			obs.LatencyBuckets, "route"),
		httpErrors: reg.CounterVec("apisense_http_errors_total",
			"Error responses written by the Hive API, by apierr code.",
			"code"),
	}
}

// Registry returns the underlying obs registry (the /metrics handler).
// Nil on a nil receiver.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// BindHive registers the Hive state gauges (devices, tasks, uploads) and
// — when h carries a storage engine — the store series (fsync counters,
// segment count, snapshot age/duration, replay cost, per-shard fsyncs),
// then attaches m to h so SubmitBatch counts per-task admissions. Call
// once per Hive; NewServer does this for WithMetrics servers. Nil-safe
// on both receiver and h.
func (m *Metrics) BindHive(h *Hive) {
	if m == nil || h == nil {
		return
	}
	h.metrics.Store(m)
	m.reg.GaugeFunc("apisense_hive_devices",
		"Devices currently registered with the Hive.",
		func() float64 { return float64(h.Stats().Devices) })
	m.reg.GaugeFunc("apisense_hive_tasks",
		"Tasks currently published on the Hive.",
		func() float64 { return float64(h.Stats().Tasks) })
	m.reg.GaugeFunc("apisense_hive_uploads",
		"Uploads retained in the Hive store across all tasks.",
		func() float64 { return float64(h.Stats().Uploads) })
	s := h.Store()
	if s == nil {
		return
	}
	stats := func() StoreStats { return s.Stats() }
	m.reg.CounterFunc("apisense_journal_fsyncs_total",
		"Durability barriers (fsync) issued by the storage engine, all files.",
		func() float64 { return float64(stats().Syncs) })
	m.reg.GaugeFunc("apisense_store_segments",
		"Live log files of the storage engine (sealed segments + one tail per shard).",
		func() float64 { return float64(stats().Segments) })
	m.reg.GaugeFunc("apisense_store_log_bytes",
		"Bytes in the live log files — what the next restart replays.",
		func() float64 { return float64(stats().LogBytes) })
	m.reg.CounterFunc("apisense_store_snapshots_total",
		"Snapshot folds completed by the storage engine.",
		func() float64 { return float64(stats().Snapshots) })
	m.reg.CounterFunc("apisense_store_snapshot_failures_total",
		"Snapshot folds that failed (log retained; retried at the next due point).",
		func() float64 { return float64(stats().SnapshotFailures) })
	m.reg.GaugeFunc("apisense_store_snapshot_age_seconds",
		"Seconds since the last completed snapshot fold; -1 when none has run.",
		func() float64 {
			at := stats().LastSnapshotAt
			if at.IsZero() {
				return -1
			}
			return time.Since(at).Seconds()
		})
	m.reg.GaugeFunc("apisense_store_last_snapshot_seconds",
		"Duration of the last completed snapshot fold.",
		func() float64 { return stats().LastSnapshotDuration.Seconds() })
	m.reg.GaugeFunc("apisense_store_replay_seconds",
		"Duration of the log replay at the last recovery.",
		func() float64 { return stats().ReplayDuration.Seconds() })
	m.reg.GaugeFunc("apisense_store_replay_records",
		"Records streamed by the last recovery.",
		func() float64 { return float64(stats().ReplayRecords) })
	shardSyncs := m.reg.CounterFuncVec("apisense_store_shard_fsyncs_total",
		"Durability barriers (fsync) per commit shard (shard 0 also carries the control plane).",
		"shard")
	for i := 0; i < s.Shards(); i++ {
		shard := i
		shardSyncs.Bind(func() float64 {
			ss := stats().ShardSyncs
			if shard >= len(ss) {
				return 0
			}
			return float64(ss[shard])
		}, strconv.Itoa(shard))
	}
}

// bindQueue registers the ingest queue series: depth, capacity and
// throughput read from q.Stats() at scrape time, plus the group-commit
// latency and size histograms that Hive.SubmitBatchContext observes.
// NewServer calls it before BindHive publishes m to the Hive, so the
// histogram fields are never written while a commit can read them. One
// queue per registry: a second bind panics (see obs.Registry.GaugeFunc).
func (m *Metrics) bindQueue(q *ingest.Queue) {
	m.reg.GaugeFunc("apisense_ingest_pending_uploads",
		"Uploads currently queued across all batch slots (queue depth).",
		func() float64 { return float64(q.Stats().PendingUploads) })
	m.reg.GaugeFunc("apisense_ingest_pending_batches",
		"Batch slots currently occupied.",
		func() float64 { return float64(q.Stats().PendingBatches) })
	m.reg.GaugeFunc("apisense_ingest_capacity_batches",
		"Configured batch slots (Config.Capacity).",
		func() float64 { return float64(q.Stats().Capacity) })
	m.reg.CounterFunc("apisense_ingest_uploads_accepted_total",
		"Uploads accepted by the sink across all drained group commits.",
		func() float64 { return float64(q.Stats().Accepted) })
	m.reg.CounterFunc("apisense_ingest_uploads_rejected_total",
		"Uploads rejected by the sink across all drained group commits.",
		func() float64 { return float64(q.Stats().Rejected) })
	m.reg.CounterFunc("apisense_ingest_uploads_dropped_total",
		"Uploads refused at the door with ingest.queue_full (never entered the queue).",
		func() float64 { return float64(q.Stats().Dropped) })
	m.reg.CounterFunc("apisense_ingest_group_commits_total",
		"Sink calls — group commits. Accepted divided by this is the coalescing factor.",
		func() float64 { return float64(q.Stats().BatchesDrained) })
	m.drainSeconds = m.reg.Histogram("apisense_ingest_drain_seconds",
		"Latency of one group commit: sink admission plus journal append and fsync.",
		obs.LatencyBuckets)
	m.groupSize = m.reg.Histogram("apisense_ingest_group_size_uploads",
		"Uploads coalesced into one group commit; the mean is the achieved coalescing factor.",
		obs.SizeBuckets)
}

// startDrain samples the wall clock for observeDrain: the zero time, and
// no clock read, unless a queue is bound.
func (m *Metrics) startDrain() time.Time {
	if m == nil || m.drainSeconds == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeDrain records one group commit of n uploads started at t0.
// No-op unless a queue is bound.
func (m *Metrics) observeDrain(t0 time.Time, n int) {
	if m == nil || m.drainSeconds == nil {
		return
	}
	m.drainSeconds.Observe(time.Since(t0).Seconds())
	m.groupSize.Observe(float64(n))
}

// observeRequest records one served request: the route/status counter and
// the route latency histogram. Nil-safe.
func (m *Metrics) observeRequest(route string, status int, t0 time.Time) {
	if m == nil {
		return
	}
	m.httpRequests.With(route, strconv.Itoa(status)).Inc()
	m.httpSeconds.With(route).Observe(time.Since(t0).Seconds())
}

// recordErrorCode counts one error response by apierr code. Nil-safe.
func (m *Metrics) recordErrorCode(code string) {
	if m == nil || code == "" {
		return
	}
	m.httpErrors.With(code).Inc()
}
