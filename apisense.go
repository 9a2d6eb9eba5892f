// Package apisense is the public facade of the APISENSE + PRIVAPI
// reproduction: a privacy-preserving crowd-sensing platform (Haderer et
// al., Middleware 2014).
//
// The platform has two halves:
//
//   - APISENSE — a crowd-sensing middleware: a central Hive service manages
//     the community of devices and publishes sensing tasks written in
//     SenseScript (a JavaScript subset); Honeycomb endpoints author tasks
//     and collect the produced datasets; simulated devices execute the
//     scripts behind a user-controlled privacy filter chain.
//   - PRIVAPI — a publication middleware that picks, per release, the
//     anonymisation strategy that maximises the declared utility objective
//     subject to a privacy floor, with the paper's speed-smoothing
//     mechanism as its flagship strategy.
//
// This package re-exports the stable surface of the internal packages so
// that applications (see examples/) program against a single import:
//
//	import "apisense"
//
//	ds, city, _ := apisense.GenerateMobility(apisense.MobilityConfig{
//		Seed: 1, Users: 20, Days: 7,
//	})
//	mw, _ := apisense.NewPrivacyMiddleware(apisense.PrivacyConfig{}, city.Center)
//	release, selection, _ := mw.Publish(ds)
//
// Everything underneath lives in internal/ packages; the per-subsystem
// documentation is on those packages (geo, trace, mobgen, poi, lppm,
// attack, metrics, core, script, filter, device, transport, hive,
// honeycomb, vsensor, incentive, secagg).
package apisense

import (
	"context"
	"time"

	"apisense/internal/apierr"
	"apisense/internal/attack"
	"apisense/internal/core"
	"apisense/internal/device"
	"apisense/internal/evalcache"
	"apisense/internal/filter"
	"apisense/internal/geo"
	"apisense/internal/hive"
	"apisense/internal/hive/store"
	"apisense/internal/honeycomb"
	"apisense/internal/incentive"
	"apisense/internal/ingest"
	"apisense/internal/lppm"
	"apisense/internal/metrics"
	"apisense/internal/mobgen"
	"apisense/internal/obs"
	"apisense/internal/otrace"
	"apisense/internal/poi"
	"apisense/internal/script"
	"apisense/internal/secagg"
	"apisense/internal/trace"
	"apisense/internal/transport"
	"apisense/internal/vsensor"
)

// ---- geodesy and mobility data ----

// Core spatial and mobility-data types.
type (
	// Point is a WGS84 coordinate pair.
	Point = geo.Point
	// BBox is a latitude/longitude bounding box.
	BBox = geo.BBox
	// Grid partitions a bounding box into square cells.
	Grid = geo.Grid
	// Cell identifies one grid cell.
	Cell = geo.Cell
	// Record is one timestamped location fix.
	Record = trace.Record
	// Trajectory is one user's time-ordered records.
	Trajectory = trace.Trajectory
	// Dataset is a collection of trajectories.
	Dataset = trace.Dataset
	// Pseudonymizer replaces user identifiers with stable pseudonyms.
	Pseudonymizer = trace.Pseudonymizer
)

// Distance returns the distance in metres between two points.
func Distance(a, b Point) float64 { return geo.Distance(a, b) }

// NewGrid builds a square-cell grid over a bounding box.
func NewGrid(box BBox, cellMeters float64) (*Grid, error) { return geo.NewGrid(box, cellMeters) }

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return trace.NewDataset() }

// NewPseudonymizer creates a keyed pseudonymizer.
func NewPseudonymizer(key []byte) (*Pseudonymizer, error) { return trace.NewPseudonymizer(key) }

// ReadCSV / WriteCSV / ReadJSON / WriteJSON are the dataset codecs.
var (
	ReadCSV   = trace.ReadCSV
	WriteCSV  = trace.WriteCSV
	ReadJSON  = trace.ReadJSON
	WriteJSON = trace.WriteJSON
)

// ---- synthetic mobility ----

// Mobility generation types.
type (
	// MobilityConfig parameterises the synthetic city generator.
	MobilityConfig = mobgen.Config
	// City is the generated environment plus per-user ground truth.
	City = mobgen.City
	// Resident is one simulated user's ground truth.
	Resident = mobgen.Resident
)

// GenerateMobility produces a synthetic mobility dataset plus its ground
// truth (see internal/mobgen for the behavioural model).
func GenerateMobility(cfg MobilityConfig) (*Dataset, *City, error) { return mobgen.Generate(cfg) }

// ---- points of interest and attacks ----

// POI extraction and attack types.
type (
	// POI is an extracted point of interest.
	POI = poi.POI
	// POIExtractor mines POIs from a trajectory.
	POIExtractor = poi.Extractor
	// StayPointConfig parameterises stay-point detection.
	StayPointConfig = poi.StayPointConfig
	// RecoveryResult reports a POI-recovery attack.
	RecoveryResult = attack.RecoveryResult
	// LinkResult reports a re-identification attack.
	LinkResult = attack.LinkResult
)

// NewStayPoints returns the classic stay-point POI extractor.
func NewStayPoints(cfg StayPointConfig) (POIExtractor, error) { return poi.NewStayPoints(cfg) }

// NewPOIRecovery builds the POI-retrieval attack.
func NewPOIRecovery(e POIExtractor, mergeRadius, matchRadius float64) (*attack.POIRecovery, error) {
	return attack.NewPOIRecovery(e, mergeRadius, matchRadius)
}

// NewLinker builds the POI-profile re-identification attack.
func NewLinker(e POIExtractor, mergeRadius float64) (*attack.Linker, error) {
	return attack.NewLinker(e, mergeRadius)
}

// ---- protection mechanisms ----

// Mechanism transforms a trajectory into its protected counterpart.
// Implementations must not mutate the input and must be safe for
// concurrent Protect calls: Protect and the PRIVAPI evaluation engine run
// mechanisms on multiple goroutines. All built-in mechanisms are immutable
// after construction; custom ones holding mutable state (e.g. a shared
// *math/rand.Rand) must derive per-call state instead.
type Mechanism = lppm.Mechanism

// Identity is the no-protection baseline mechanism.
type Identity = lppm.Identity

// NewSpeedSmoothing returns the paper's speed-smoothing mechanism
// (resampling step in metres, points trimmed per extremity; trim < 0
// selects the default).
func NewSpeedSmoothing(epsilonMeters float64, trim int) (Mechanism, error) {
	return lppm.NewSpeedSmoothing(epsilonMeters, trim)
}

// NewGeoInd returns planar-Laplace geo-indistinguishability (epsilon in
// 1/metres).
func NewGeoInd(epsilon float64, seed uint64) (Mechanism, error) {
	return lppm.NewGeoInd(epsilon, seed)
}

// NewCloaking returns grid-snapping spatial cloaking.
func NewCloaking(cellMeters float64, origin Point) (Mechanism, error) {
	return lppm.NewCloaking(cellMeters, origin)
}

// MechanismFromSpec parses a textual mechanism spec such as
// "smoothing:eps=100" or "geoind:eps=0.01" (see internal/lppm.FromSpec).
func MechanismFromSpec(spec string) (Mechanism, error) { return lppm.FromSpec(spec) }

// Protect applies a mechanism to a whole dataset, parallelising across
// trajectories (one worker per CPU).
func Protect(m Mechanism, d *Dataset) (*Dataset, error) { return lppm.ProtectDataset(m, d) }

// ProtectContext applies a mechanism to a whole dataset on up to
// parallelism worker goroutines (<= 0 selects one per CPU), honouring
// cancellation of ctx. The output is byte-identical for any parallelism.
func ProtectContext(ctx context.Context, m Mechanism, d *Dataset, parallelism int) (*Dataset, error) {
	return lppm.ProtectDatasetContext(ctx, m, d, parallelism)
}

// ---- PRIVAPI middleware ----

// PRIVAPI types.
type (
	// PrivacyConfig parameterises the PRIVAPI middleware (see
	// PrivacyConfig.Parallelism for the evaluation-engine worker pool).
	PrivacyConfig = core.Config
	// PrivacyMiddleware selects and applies the optimal strategy. Its
	// portfolio evaluation runs on a concurrent engine; use
	// PublishContext/EvaluateContext to make long publications
	// cancellable.
	PrivacyMiddleware = core.Middleware
	// Selection reports a Publish run.
	Selection = core.Selection
	// StrategyEvaluation is one strategy's scorecard.
	StrategyEvaluation = core.Evaluation
	// UtilityObjective declares the target data-mining task.
	UtilityObjective = core.Objective
)

// Utility objectives.
const (
	ObjectiveCrowdedPlaces = core.ObjectiveCrowdedPlaces
	ObjectiveTraffic       = core.ObjectiveTraffic
	ObjectiveDistortion    = core.ObjectiveDistortion
)

// ErrNoStrategy is returned when no strategy meets the privacy floor.
var ErrNoStrategy = core.ErrNoStrategy

// NewPrivacyMiddleware builds the PRIVAPI engine.
func NewPrivacyMiddleware(cfg PrivacyConfig, origin Point) (*PrivacyMiddleware, error) {
	return core.New(cfg, origin)
}

// ---- evaluation cache ----

// Evaluation-cache types. Set PrivacyConfig.Cache to memoize reference-POI
// extraction, attacker stay-point extraction and whole selection results
// across Publish runs; unchanged inputs are re-published without
// re-evaluation and warm reports stay byte-identical to cold ones (see
// internal/evalcache).
type (
	// EvalCache is the content-addressed evaluation cache interface.
	EvalCache = evalcache.Cache
	// EvalCacheStats are the cache gauges (entries, bytes, hits, misses,
	// evictions, pruned strategies).
	EvalCacheStats = evalcache.Stats
)

// NewEvalCache returns the in-memory LRU evaluation cache bounded to
// approximately maxBytes of retained entries (<= 0 selects the default,
// 256 MiB). Safe for concurrent use and for sharing between middlewares.
func NewEvalCache(maxBytes int64) EvalCache { return evalcache.NewLRU(maxBytes) }

// WithEvalCache surfaces an evaluation cache's gauges under the Hive
// server's /api/stats.
var WithEvalCache = hive.WithEvalCache

// ---- sharded publication ----

// Sharded-publication types. Very large datasets are partitioned by a
// ShardPolicy, each shard runs the strategy-selection engine independently
// (sharing the global PrivacyConfig.Parallelism budget), and the per-shard
// winners are merged into one release; see
// PrivacyMiddleware.PublishShardedContext.
type (
	// ShardPolicy assigns every trajectory of a dataset to a shard.
	ShardPolicy = core.ShardBy
	// Shard is one partition of a dataset.
	Shard = core.Shard
	// ShardedSelection reports a sharded Publish run: per-shard outcomes
	// plus worst-shard privacy and size-weighted utility aggregates.
	ShardedSelection = core.ShardedSelection
	// ShardOutcome is one shard's entry in a ShardedSelection.
	ShardOutcome = core.ShardOutcome
)

// ShardByCell partitions by region grid cell (cellMeters per side).
func ShardByCell(cellMeters float64) (ShardPolicy, error) { return core.NewShardByCell(cellMeters) }

// ShardByWindow partitions by fixed UTC time window.
func ShardByWindow(window time.Duration) (ShardPolicy, error) { return core.NewShardByWindow(window) }

// ShardByUser partitions by stable user hash into the given bucket count.
func ShardByUser(buckets int) (ShardPolicy, error) { return core.NewShardByUser(buckets) }

// ShardPolicyFromSpec parses a textual shard policy spec such as
// "cell:size=2000", "window:dur=24h" or "user:buckets=8".
func ShardPolicyFromSpec(spec string) (ShardPolicy, error) { return core.ShardPolicyFromSpec(spec) }

// PartitionDataset splits a dataset into shards according to a policy,
// in ascending shard-key order.
func PartitionDataset(d *Dataset, by ShardPolicy) ([]Shard, error) { return core.Partition(d, by) }

// ---- utility metrics ----

// Utility-metric helpers (see internal/metrics for the full API).
var (
	// UserDensity counts distinct users per grid cell.
	UserDensity = metrics.UserDensity
	// TopKOverlap compares raw and protected hotspots.
	TopKOverlap = metrics.TopKOverlap
	// SpatialDistortion measures time-aligned displacement.
	SpatialDistortion = metrics.SpatialDistortion
	// CountTraffic builds per-cell-hour visit counts.
	CountTraffic = metrics.CountTraffic
	// NewForecaster trains the historical-average traffic forecaster.
	NewForecaster = metrics.NewForecaster
	// SplitAtDay partitions a dataset at a cut instant.
	SplitAtDay = metrics.SplitAtDay
	// TopKCells returns the densest cells of a density map.
	TopKCells = metrics.TopK
	// FlowMatrix counts directed cell-to-cell transitions.
	FlowMatrix = metrics.FlowMatrix
	// FlowSimilarity compares two flow matrices (cosine).
	FlowSimilarity = metrics.FlowSimilarity
)

// Traffic-forecasting types.
type (
	// TrafficCounts holds per-cell-hour visit counts.
	TrafficCounts = metrics.TrafficCounts
	// Forecaster predicts per-cell-hour visits.
	Forecaster = metrics.Forecaster
	// CellHour identifies one grid cell during one hour of day.
	CellHour = metrics.CellHour
	// Density maps grid cells to activity.
	Density = metrics.Density
)

// ---- platform (APISENSE) ----

// Platform types.
type (
	// TaskSpec describes a crowd-sensing task (script + envelope).
	TaskSpec = transport.TaskSpec
	// Upload is a device's dataset batch.
	Upload = transport.Upload
	// UploadBatch is several uploads submitted in one request.
	UploadBatch = transport.UploadBatch
	// UploadBatchResponse carries per-item admission results.
	UploadBatchResponse = transport.UploadBatchResponse
	// DeviceInfo is a device registration record.
	DeviceInfo = transport.DeviceInfo
	// Hive is the central coordination service.
	Hive = hive.Hive
	// HiveServer is the Hive's HTTP API.
	HiveServer = hive.Server
	// IngestQueue is the bounded, group-committing ingestion queue.
	IngestQueue = ingest.Queue
	// IngestConfig sizes an IngestQueue.
	IngestConfig = ingest.Config
	// ServerOption configures a HiveServer (see WithIngestQueue).
	ServerOption = hive.ServerOption
	// BatchUploader buffers device uploads and flushes them in batches
	// with jittered retry on backpressure.
	BatchUploader = device.BatchUploader
	// UploaderConfig tunes a BatchUploader.
	UploaderConfig = device.UploaderConfig
	// Honeycomb is an experimenter endpoint.
	Honeycomb = honeycomb.Honeycomb
	// Device is a simulated mobile device.
	Device = device.Device
	// DeviceConfig assembles a simulated device.
	DeviceConfig = device.Config
	// Battery is the device battery model.
	Battery = device.Battery
	// FilterChain is the device-side privacy layer.
	FilterChain = filter.Chain
	// VirtualSensor orchestrates a device group.
	VirtualSensor = vsensor.VirtualSensor
)

// NewHive creates an empty Hive.
func NewHive() *Hive { return hive.New() }

// The storage engine. A HiveStore persists the Hive's event history as a
// snapshot plus rotating segment files, one tail per commit shard (see
// internal/hive/store).
type (
	// HiveStore is the storage engine behind a Hive.
	HiveStore = store.Store
	// HiveStoreStats is a point-in-time snapshot of store health
	// (segments, fsyncs, snapshot age, replay cost).
	HiveStoreStats = store.Stats
	// SegmentedStoreConfig sizes the engine: segment size, fold
	// frequency, commit shards.
	SegmentedStoreConfig = store.SegmentedConfig
)

// OpenSegmentedStore opens the storage engine on a directory: each
// shard's tail rotates at a size threshold and sealed history folds into
// snapshots, so recovery cost is bounded by the tails instead of total
// history.
var OpenSegmentedStore = store.OpenSegmented

// RecoverHiveFrom replays a freshly opened store into a Hive and
// attaches it for further appends, making the service restart-safe.
var RecoverHiveFrom = hive.RecoverFrom

// NewHiveServer wraps a Hive with its HTTP API; pass WithIngestQueue to
// stream uploads through a bounded queue with backpressure.
func NewHiveServer(h *Hive, opts ...hive.ServerOption) *HiveServer { return hive.NewServer(h, opts...) }

// WithIngestQueue routes the server's upload endpoints through q.
var WithIngestQueue = hive.WithIngestQueue

// NewIngestQueue builds the bounded ingestion queue over a Hive (or any
// ingest.Sink) and starts its drain workers.
func NewIngestQueue(h *Hive, cfg IngestConfig) *IngestQueue { return ingest.New(h, cfg) }

// ErrQueueFull is the ingest queue's backpressure signal (HTTP 429).
var ErrQueueFull = ingest.ErrQueueFull

// NewHoneycomb creates an experimenter endpoint against a Hive URL.
func NewHoneycomb(name, hiveURL string) (*Honeycomb, error) { return honeycomb.New(name, hiveURL) }

// NewDevice builds a simulated device.
func NewDevice(cfg DeviceConfig) (*Device, error) { return device.New(cfg) }

// NewBattery returns a battery at the given charge percentage.
func NewBattery(level float64) *Battery { return device.NewBattery(level) }

// UploadsToDataset converts collected uploads into a mobility dataset.
var UploadsToDataset = honeycomb.UploadsToDataset

// NewFilterChain builds a device-side privacy chain.
func NewFilterChain(rules ...filter.Rule) *FilterChain { return filter.NewChain(rules...) }

// NewVirtualSensor groups devices behind one retrieval interface.
func NewVirtualSensor(name string, devices []*Device, s vsensor.Strategy) (*VirtualSensor, error) {
	return vsensor.New(name, devices, s)
}

// ---- scripting ----

// Script types.
type (
	// ScriptInterp executes SenseScript programs.
	ScriptInterp = script.Interp
	// ScriptValue is a SenseScript runtime value.
	ScriptValue = script.Value
)

// NewScriptInterp creates a sandboxed SenseScript interpreter.
func NewScriptInterp(opts ...script.Option) *ScriptInterp { return script.NewInterp(opts...) }

// ParseScript compiles SenseScript source.
var ParseScript = script.Parse

// ---- incentives ----

// Incentive types.
type (
	// IncentiveStrategy converts platform state into participation boosts.
	IncentiveStrategy = incentive.Strategy
	// Population is a seeded contributor population.
	Population = incentive.Population
)

// NewPopulation draws a deterministic contributor population.
func NewPopulation(n int, seed uint64) (*Population, error) { return incentive.NewPopulation(n, seed) }

// SimulateIncentive runs a campaign simulation.
var SimulateIncentive = incentive.Simulate

// ---- secure aggregation ----

// Secure-aggregation types.
type (
	// PaillierPrivateKey decrypts homomorphic aggregates.
	PaillierPrivateKey = secagg.PrivateKey
	// PaillierPublicKey encrypts device contributions.
	PaillierPublicKey = secagg.PublicKey
	// HistogramSession aggregates encrypted count vectors.
	HistogramSession = secagg.HistogramSession
)

// GeneratePaillierKey creates a Paillier key pair.
func GeneratePaillierKey(bits int) (*PaillierPrivateKey, error) { return secagg.GenerateKey(bits) }

// NewHistogramSession opens an encrypted-aggregation session.
func NewHistogramSession(pk *PaillierPublicKey, cells int) (*HistogramSession, error) {
	return secagg.NewHistogramSession(pk, cells)
}

// EncryptContribution encrypts a device's count vector.
var EncryptContribution = secagg.EncryptContribution

// ---- observability ----

// Observability types. Build one MetricsRegistry per process, register the
// subsystem instruments on it (NewHiveMetrics, NewEngineMetrics,
// IngestConfig.Metrics via NewIngestMetrics), and serve it — the registry
// is an http.Handler emitting Prometheus text format — or pass it to the
// Hive server with WithMetrics, which also mounts GET /metrics. Every hook
// is nil-safe: a zero Config publishes nothing and pays nothing. See
// docs/OPERATIONS.md for the series catalogue.
type (
	// MetricsRegistry is the dependency-free Prometheus-text-format
	// registry (see internal/obs).
	MetricsRegistry = obs.Registry
	// EngineMetrics instruments the publication engine's hot paths; set
	// it on PrivacyConfig.Metrics.
	EngineMetrics = core.EngineMetrics
	// HiveMetrics instruments the Hive HTTP surface and registry state;
	// pass it to the server with WithMetrics.
	HiveMetrics = hive.Metrics
	// IngestMetrics instruments the ingest queue's drain path; set it on
	// IngestConfig.Metrics.
	IngestMetrics = ingest.Metrics
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEngineMetrics registers the engine latency histograms on reg.
func NewEngineMetrics(reg *MetricsRegistry) *EngineMetrics { return core.NewEngineMetrics(reg) }

// NewHiveMetrics registers the Hive HTTP and state instruments on reg.
func NewHiveMetrics(reg *MetricsRegistry) *HiveMetrics { return hive.NewMetrics(reg) }

// NewIngestMetrics registers the ingest drain instruments on reg.
func NewIngestMetrics(reg *MetricsRegistry) *IngestMetrics { return ingest.NewMetrics(reg) }

// WithMetrics serves reg at the Hive server's GET /metrics and instruments
// every route with request, latency and error-code series.
var WithMetrics = hive.WithMetrics

// RegisterRuntimeMetrics adds the Go runtime gauges (goroutines, heap,
// GC pause total, GOMAXPROCS) to reg. Call at most once per registry.
var RegisterRuntimeMetrics = obs.RegisterRuntime

// RegisterBuildInfo adds the constant apisense_build_info gauge to reg.
var RegisterBuildInfo = obs.RegisterBuildInfo

// ---- tracing ----

// Tracing types. Build one Tracer per process (NewTracer), hand it to the
// subsystems that accept one — UploaderConfig.Tracer, IngestConfig.Tracer,
// PrivacyConfig.Tracer, the Hive server via WithTracer — and read the
// collected traces back from its SpanStore or over GET /debug/traces.
// Every hook is nil-safe and deterministic: reports and releases are
// byte-identical with tracing on or off (see internal/otrace).
type (
	// Tracer records spans into a bounded in-memory store.
	Tracer = otrace.Tracer
	// TracerConfig tunes a Tracer (clock, ID source, span store).
	TracerConfig = otrace.Config
	// Span is one finished operation of a trace.
	Span = otrace.Span
	// SpanStore is the bounded per-trace span buffer behind a Tracer.
	SpanStore = otrace.SpanStore
	// SpanContext is the propagated trace identity (W3C traceparent).
	SpanContext = otrace.SpanContext
)

// NewTracer builds a tracer; the zero config uses the wall clock,
// crypto/rand IDs and a store bounded at otrace.DefaultMaxTraces.
func NewTracer(cfg TracerConfig) *Tracer { return otrace.New(cfg) }

// NewSpanStore builds a bounded span store for TracerConfig.Store.
var NewSpanStore = otrace.NewSpanStore

// WithTracer records a server span per Hive route and serves the trace
// store at GET /debug/traces.
var WithTracer = hive.WithTracer

// WithLogger emits one trace-correlated structured log record per Hive
// request and error response.
var WithLogger = hive.WithLogger

// NewTraceLogHandler wraps any slog.Handler so records logged with a
// traced context carry trace_id/span_id attributes.
var NewTraceLogHandler = otrace.NewLogHandler

// ---- coded errors ----

// Every sentinel the platform returns across an API boundary carries a
// stable machine-readable code ("hive.unknown_task", "ingest.queue_full",
// ...) and an HTTP category (see internal/apierr and the error-code
// catalogue in docs/OPERATIONS.md). The Hive server answers errors as
// {"error": message, "code": code}; the transport client rehydrates the
// code so errors.Is works across the wire against the same sentinels.
var (
	// ErrorCode extracts the stable code of a coded error ("" if uncoded).
	ErrorCode = apierr.Code
	// ErrorHTTPStatus maps a coded error's category to its HTTP status
	// (500 for uncoded errors).
	ErrorHTTPStatus = apierr.HTTPStatus
	// RemoteError rehydrates a wire code into an error matchable with
	// errors.Is against the package sentinels.
	RemoteError = apierr.Remote
)
