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
//	release, selection, _ := mw.PublishContext(context.Background(), ds)
//
// The facade holds what examples/ and the root tests use. Everything else
// — the storage engine, the ingest queue, metrics, tracing, coded errors —
// stays reachable through its internal/ package, which also carries the
// per-subsystem documentation (geo, trace, mobgen, poi, lppm, attack,
// metrics, evalcache, core, script, filter, device, transport, hive,
// honeycomb).
package apisense

import (
	"context"
	"time"

	"apisense/internal/attack"
	"apisense/internal/core"
	"apisense/internal/device"
	"apisense/internal/evalcache"
	"apisense/internal/filter"
	"apisense/internal/geo"
	"apisense/internal/hive"
	"apisense/internal/honeycomb"
	"apisense/internal/lppm"
	"apisense/internal/metrics"
	"apisense/internal/mobgen"
	"apisense/internal/poi"
	"apisense/internal/script"
	"apisense/internal/trace"
	"apisense/internal/transport"
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
	// Dataset is a collection of trajectories.
	Dataset = trace.Dataset
	// Pseudonymizer replaces user identifiers with stable pseudonyms.
	Pseudonymizer = trace.Pseudonymizer
)

// Distance returns the distance in metres between two points.
func Distance(a, b Point) float64 { return geo.Distance(a, b) }

// NewGrid builds a square-cell grid over a bounding box.
func NewGrid(box BBox, cellMeters float64) (*Grid, error) { return geo.NewGrid(box, cellMeters) }

// NewPseudonymizer creates a keyed pseudonymizer.
func NewPseudonymizer(key []byte) (*Pseudonymizer, error) { return trace.NewPseudonymizer(key) }

// ---- synthetic mobility ----

// Mobility generation types.
type (
	// MobilityConfig parameterises the synthetic city generator.
	MobilityConfig = mobgen.Config
	// City is the generated environment plus per-user ground truth.
	City = mobgen.City
)

// GenerateMobility produces a synthetic mobility dataset plus its ground
// truth (see internal/mobgen for the behavioural model).
func GenerateMobility(cfg MobilityConfig) (*Dataset, *City, error) { return mobgen.Generate(cfg) }

// ---- points of interest and attacks ----

// POI extraction types.
type (
	// POIExtractor mines POIs from a trajectory.
	POIExtractor = poi.Extractor
	// StayPointConfig parameterises stay-point detection.
	StayPointConfig = poi.StayPointConfig
)

// NewStayPoints returns the classic stay-point POI extractor.
func NewStayPoints(cfg StayPointConfig) (POIExtractor, error) { return poi.NewStayPoints(cfg) }

// NewPOIRecovery builds the POI-retrieval attack.
func NewPOIRecovery(e POIExtractor, mergeRadius, matchRadius float64) (*attack.POIRecovery, error) {
	return attack.NewPOIRecovery(e, mergeRadius, matchRadius)
}

// ---- protection mechanisms ----

// Mechanism transforms a trajectory into its protected counterpart,
// appending the protected records to a caller's buffer (see
// lppm.Mechanism). Implementations must not mutate the input, must not
// retain the buffer, and must be safe for
// concurrent Protect calls: Protect and the PRIVAPI evaluation engine run
// mechanisms on multiple goroutines. All built-in mechanisms are immutable
// after construction; custom ones holding mutable state (e.g. a shared
// *math/rand.Rand) must derive per-call state instead.
type Mechanism = lppm.Mechanism

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
// trajectories (one worker per CPU). It stops between trajectories once ctx
// is cancelled.
func Protect(ctx context.Context, m Mechanism, d *Dataset) (*Dataset, error) {
	return lppm.ProtectDatasetContext(ctx, m, d, 0)
}

// ---- PRIVAPI middleware ----

// PRIVAPI types.
type (
	// PrivacyConfig parameterises the PRIVAPI middleware (see
	// PrivacyConfig.Parallelism for the evaluation-engine worker pool).
	PrivacyConfig = core.Config
	// PrivacyMiddleware selects and applies the optimal strategy. Its
	// portfolio evaluation runs on a concurrent engine; every entry point
	// (PublishContext, EvaluateContext, PublishShardedContext) takes the
	// caller's context and abandons the run when it is cancelled.
	PrivacyMiddleware = core.Middleware
)

// Utility objectives (PrivacyConfig.Objective).
const (
	ObjectiveCrowdedPlaces = core.ObjectiveCrowdedPlaces
	ObjectiveTraffic       = core.ObjectiveTraffic
)

// NewPrivacyMiddleware builds the PRIVAPI engine.
func NewPrivacyMiddleware(cfg PrivacyConfig, origin Point) (*PrivacyMiddleware, error) {
	return core.New(cfg, origin)
}

// NewPrivacyAttack builds the simulated POI-recovery attack the
// middleware's privacy floor judges a release by under cfg (its
// AttackRadius and POIConfig.MinDuration).
func NewPrivacyAttack(cfg PrivacyConfig) (*attack.POIRecovery, error) { return core.NewAttack(cfg) }

// ---- evaluation cache ----

// EvalCache is the content-addressed evaluation cache. Set
// PrivacyConfig.Cache to memoize whole selection results (per dataset or
// per shard) across Publish runs; unchanged inputs and unchanged shards are
// re-published without re-evaluation, and warm reports and releases stay
// byte-identical to cold ones on any input (see internal/evalcache).
type EvalCache = evalcache.Cache

// NewEvalCache returns the in-memory LRU evaluation cache bounded to
// approximately maxBytes of retained entries (<= 0 selects the default,
// 256 MiB). Safe for concurrent use and for sharing between middlewares.
func NewEvalCache(maxBytes int64) EvalCache { return evalcache.NewLRU(maxBytes) }

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
)

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
)

// Utility-metric types.
type (
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
	// Hive is the central coordination service.
	Hive = hive.Hive
	// HiveServer is the Hive's HTTP API.
	HiveServer = hive.Server
	// Honeycomb is an experimenter endpoint.
	Honeycomb = honeycomb.Honeycomb
	// Device is a simulated mobile device.
	Device = device.Device
	// DeviceConfig assembles a simulated device.
	DeviceConfig = device.Config
	// FilterChain is the device-side privacy layer.
	FilterChain = filter.Chain
)

// NewHive creates an empty Hive.
func NewHive() *Hive { return hive.New() }

// NewHiveServer wraps a Hive with its HTTP API.
func NewHiveServer(h *Hive) *HiveServer { return hive.NewServer(h) }

// NewHoneycomb creates an experimenter endpoint against a Hive URL.
func NewHoneycomb(name, hiveURL string) (*Honeycomb, error) { return honeycomb.New(name, hiveURL) }

// NewDevice builds a simulated device.
func NewDevice(cfg DeviceConfig) (*Device, error) { return device.New(cfg) }

// UploadsToDataset converts collected uploads into a mobility dataset.
var UploadsToDataset = honeycomb.UploadsToDataset

// NewFilterChain builds a device-side privacy chain.
func NewFilterChain(rules ...filter.Rule) *FilterChain { return filter.NewChain(rules...) }

// ---- scripting ----

// ScriptInterp executes SenseScript programs.
type ScriptInterp = script.Interp

// NewScriptInterp creates a sandboxed SenseScript interpreter.
func NewScriptInterp(opts ...script.Option) *ScriptInterp { return script.NewInterp(opts...) }

// ParseScript compiles SenseScript source.
var ParseScript = script.Parse
