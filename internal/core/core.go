// Package core implements the PRIVAPI middleware (§3 of the paper): a
// server-side publication pipeline that "leverages the global knowledge of
// the whole system to apply an optimal anonymization strategy and produce a
// privacy-preserving mobility dataset".
//
// The middleware is utility-driven: "there is not one unique anonymization
// strategy that always performs well but many from which we can choose the
// one that fits the best to the usage that will be done with the anonymized
// dataset". Concretely, PublishContext:
//
//  1. derives the reference points of interest of every contributor from
//     the raw dataset (the middleware, unlike an outside attacker, sees the
//     whole dataset — that is its "global knowledge");
//  2. evaluates every candidate strategy by simulating the POI-recovery
//     attack on the protected output and scoring the utility objective the
//     dataset consumer declared (crowded places, traffic forecasting, or
//     raw spatial fidelity);
//  3. keeps the strategies whose residual POI recall is below the privacy
//     floor configured by the users/platform owner, picks the one with the
//     best utility, and releases the pseudonymised protected dataset.
//
// # Evaluation engine
//
// Publication is the platform's hottest path, so it runs on a concurrent
// evaluation engine (see engine.go):
//
//   - the strategy-independent half of an evaluation is computed once per
//     run into an evalContext instead of once per strategy: the reference
//     POIs and a metrics.RawView of the raw dataset — per user, the raw
//     trajectories, whose records it reads in place; the raw visited cells
//     of the analysis grid; the raw top-k crowded cells; and
//     the traffic baseline (the held-out last day's counts and the error
//     of the forecaster trained on the days before it);
//   - each strategy then costs one pass over the users: every trajectory is
//     protected into a worker's reused buffer and, while it is there,
//     scored (metrics.Scorer: every record binned once on the grid for
//     coverage, crowded places and traffic, and located once on its user's
//     raw trajectories for the distortion) and, for users with reference
//     POIs, mined for stays by the attacker; the core.attack span then
//     merges each user's stays into places and matches them;
//   - the strategy portfolio is fanned out over a bounded worker pool of
//     Config.Parallelism goroutines (default one per CPU); a strategy given
//     more than one worker splits its users into contiguous ranges whose
//     partial scores merge exactly; results are fanned back in preserving
//     portfolio order, and every mechanism derives randomness from the
//     trajectory identity, so reports are byte-identical for any
//     parallelism;
//   - memory is one trajectory in flight per worker, plus the winner,
//     which is protected again once every strategy is scored to build the
//     release (EvaluateContext protects nothing a second time); no
//     protected dataset is built while scoring, and a release no cache
//     shares is pseudonymised in place, not copied;
//   - PublishContext, EvaluateContext and PublishShardedContext take the
//     caller's context.Context and abandon the run promptly when it is
//     cancelled.
//
// # Sharded publication
//
// Very large datasets are published in shards (see shard.go): a ShardBy
// policy partitions the dataset by region grid-cell, time window or user
// bucket; PublishShardedContext runs the selection engine on every shard —
// sharing the global Parallelism budget — and merges the per-shard winners
// into one release. Privacy composes conservatively (the release's
// guarantee is the worst shard's) while utility is the record-weighted
// mean; shards where no strategy meets the floor are withheld instead of
// failing the whole release. Reports and releases stay byte-identical for
// any Parallelism.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"apisense/internal/attack"
	"apisense/internal/evalcache"
	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/metrics"
	"apisense/internal/otrace"
	"apisense/internal/poi"
	"apisense/internal/trace"
)

// Objective declares the data-mining task the published dataset must stay
// useful for.
type Objective int

// The supported utility objectives.
const (
	// ObjectiveCrowdedPlaces optimises the overlap of top-k crowded cells
	// ("finding out crowded places", claim C3).
	ObjectiveCrowdedPlaces Objective = iota + 1
	// ObjectiveTraffic optimises per-cell-hour traffic forecasting
	// ("predicting traffic", claim C3).
	ObjectiveTraffic
	// ObjectiveDistortion optimises raw spatial fidelity (time-aligned
	// distortion), for consumers that need point-accurate data.
	ObjectiveDistortion
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjectiveCrowdedPlaces:
		return "crowded-places"
	case ObjectiveTraffic:
		return "traffic"
	case ObjectiveDistortion:
		return "distortion"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Config parameterises the middleware.
type Config struct {
	// Strategies are the candidate mechanisms. Leave nil for the default
	// portfolio (identity is never included: the floor applies to it too).
	// The evaluation engine calls Protect concurrently, so custom
	// mechanisms must be safe for concurrent use (see lppm.Mechanism);
	// all built-in mechanisms are.
	Strategies []lppm.Mechanism
	// Objective is the declared utility target (default crowded places).
	Objective Objective
	// MaxPOIExposure is the privacy floor: the maximum tolerated F-score
	// of the simulated POI-retrieval attack on the protected output. The
	// F-score combines how many true stops the attacker finds (recall)
	// with their ability to tell them apart from decoys (precision);
	// strategies scoring above it are rejected (default 0.33).
	MaxPOIExposure float64
	// CellSize is the analysis grid cell in metres (default 250).
	CellSize float64
	// TopK is the number of hotspots compared (default 20).
	TopK int
	// POIConfig controls reference POI extraction from the raw dataset.
	POIConfig poi.StayPointConfig
	// AttackRadius is the stay-point radius the simulated attacker uses
	// on protected data (default 500 m, the noise-adaptive setting).
	AttackRadius float64
	// PseudonymKey keys the release pseudonymizer. Leave nil to keep
	// original user identifiers (useful in evaluations).
	PseudonymKey []byte
	// Parallelism bounds the worker pool the evaluation engine uses to
	// score the strategy portfolio and to protect trajectories. 0 (or
	// negative) selects runtime.GOMAXPROCS(0); 1 forces a fully
	// sequential run. Results are byte-identical for any value.
	Parallelism int
	// Cache is the optional evaluation cache (see internal/evalcache): it
	// holds whole selections (scorecard, winner, protected dataset) keyed
	// by dataset or shard content hash, so an unchanged shard skips
	// evaluation. nil disables caching. A cache may be shared by
	// several middlewares and used from concurrent Publish calls; entries
	// are scoped by a configuration fingerprint, so a config change never
	// serves stale results. Warm reports and releases are byte-identical
	// to cold ones on any input, changed or not.
	Cache evalcache.Cache
	// Tracer, when non-nil, records a span tree per publication run:
	// partitioning, per-shard selection, per-strategy evaluation with the
	// POI-recovery attack, selection-cache hits, and the final merge (see
	// internal/otrace). These spans are the engine's only
	// instrumentation: they time every stage, and /debug/traces and
	// bench --trace read them. nil — the zero value — disables tracing
	// with no clock reads. Tracing never changes results: reports and
	// releases stay byte-identical at any parallelism whether tracing is
	// on or off.
	Tracer *otrace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Objective == 0 {
		c.Objective = ObjectiveCrowdedPlaces
	}
	if c.MaxPOIExposure == 0 {
		c.MaxPOIExposure = 0.33
	}
	if c.CellSize == 0 {
		c.CellSize = 250
	}
	if c.TopK == 0 {
		c.TopK = 20
	}
	if c.AttackRadius == 0 {
		c.AttackRadius = 500
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// DefaultStrategies returns the portfolio evaluated when Config.Strategies
// is nil: the paper's speed smoothing at three grains, geo-indistinguisha-
// bility at two budgets, cloaking and downsampling.
func DefaultStrategies(origin geo.Point) ([]lppm.Mechanism, error) {
	var out []lppm.Mechanism
	for _, eps := range []float64{50, 100, 200} {
		m, err := lppm.NewSpeedSmoothing(eps, 2)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	for _, eps := range []float64{0.01, 0.002} {
		m, err := lppm.NewGeoInd(eps, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	cl, err := lppm.NewCloaking(800, origin)
	if err != nil {
		return nil, err
	}
	out = append(out, cl)
	dsm, err := lppm.NewDownsample(20)
	if err != nil {
		return nil, err
	}
	return append(out, dsm), nil
}

// Evaluation is the per-strategy scorecard.
type Evaluation struct {
	// Strategy is the mechanism name.
	Strategy string
	// Privacy is the simulated POI-recovery attack result.
	Privacy attack.RecoveryResult
	// MeetsFloor reports whether Privacy.F1() <= MaxPOIExposure.
	MeetsFloor bool
	// HotspotOverlap is the top-k crowded-cells F1 against raw.
	HotspotOverlap float64
	// TrafficUtility is baselineMAE/protectedMAE clamped to [0,1]
	// (1 = forecasts as well as raw data); 0 when not evaluable.
	TrafficUtility float64
	// Distortion is the time-aligned spatial distortion.
	Distortion metrics.DistortionStats
	// Coverage is the fraction of raw cells still visited.
	Coverage float64
	// Utility is the objective-specific scalar in [0,1].
	Utility float64
	// Released is the number of trajectories the strategy releases
	// (suppression shrinks it).
	Released int
}

// Selection is the outcome of a Publish run.
type Selection struct {
	// Objective echoes the configured objective.
	Objective Objective
	// Floor echoes the configured privacy floor.
	Floor float64
	// Chosen is the winning strategy name; empty when no strategy met
	// the floor.
	Chosen string
	// Evaluations holds the scorecard of every candidate, in portfolio
	// order.
	Evaluations []Evaluation
}

// Middleware is the PRIVAPI publication engine.
type Middleware struct {
	cfg        Config
	strategies []lppm.Mechanism
	// refExtractor and recovery are the config-derived analysis tools,
	// built once here rather than once per publish/shard: they depend
	// only on the middleware configuration, never on the dataset.
	refExtractor poi.Extractor
	recovery     *attack.POIRecovery
	// cache and fp drive the evaluation cache (nil cache = disabled):
	// fp is the configuration fingerprint every key is scoped by; see
	// cache.go.
	cache evalcache.Cache
	fp    string
	// scratch pools the per-worker buffers of the strategy passes (see
	// scratch in engine.go), reused across strategies, shards and runs.
	scratch sync.Pool
}

// New creates a middleware instance. If cfg.Strategies is nil the default
// portfolio anchored at origin is used.
func New(cfg Config, origin geo.Point) (*Middleware, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxPOIExposure < 0 || cfg.MaxPOIExposure > 1 {
		return nil, fmt.Errorf("core: MaxPOIExposure must be in [0,1], got %v", cfg.MaxPOIExposure)
	}
	strategies := cfg.Strategies
	if strategies == nil {
		var err error
		strategies, err = DefaultStrategies(origin)
		if err != nil {
			return nil, fmt.Errorf("core: default strategies: %w", err)
		}
	}
	if len(strategies) == 0 {
		return nil, fmt.Errorf("core: at least one strategy is required")
	}
	m := &Middleware{cfg: cfg, strategies: strategies, cache: cfg.Cache}
	m.fp = m.fingerprint()
	refExtractor, err := poi.NewStayPoints(cfg.POIConfig)
	if err != nil {
		return nil, fmt.Errorf("core: reference extractor: %w", err)
	}
	m.refExtractor = refExtractor
	m.recovery, err = NewAttack(cfg)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewAttack returns the simulated POI-recovery attack the privacy floor
// judges a release by: stay points within cfg.AttackRadius for
// cfg.POIConfig.MinDuration (zero fields take their defaults), merged and
// matched at the attack's default radii. Anything that must judge a
// release the way the middleware does builds its attacker here.
func NewAttack(cfg Config) (*attack.POIRecovery, error) {
	cfg = cfg.withDefaults()
	extractor, err := poi.NewStayPoints(poi.StayPointConfig{
		MaxDistance: cfg.AttackRadius,
		MinDuration: cfg.POIConfig.MinDuration,
	})
	if err != nil {
		return nil, fmt.Errorf("core: attacker extractor: %w", err)
	}
	recovery, err := attack.NewPOIRecovery(extractor, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("core: recovery attack: %w", err)
	}
	return recovery, nil
}

// Strategies returns the names of the candidate strategies.
func (m *Middleware) Strategies() []string {
	out := make([]string, len(m.strategies))
	for i, s := range m.strategies {
		out[i] = s.Name()
	}
	return out
}

// ReferencePOIs extracts the per-user reference POIs from the raw dataset —
// the middleware's global knowledge of what must be hidden.
func (m *Middleware) ReferencePOIs(raw *trace.Dataset) (map[string][]geo.Point, error) {
	perUser := poi.ExtractAll(m.refExtractor, raw)
	out := make(map[string][]geo.Point, len(perUser))
	for user, pois := range perUser {
		places := poi.Merge(pois, 250) // stays within 250 m are one place
		pts := make([]geo.Point, len(places))
		for i, p := range places {
			pts[i] = p.Center
		}
		out[user] = pts
	}
	return out, nil
}
