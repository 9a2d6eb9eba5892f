package core

import (
	"time"

	"apisense/internal/obs"
)

// EngineMetrics instruments the evaluation engine's hot paths with
// latency histograms: whole publish and evaluate runs, per-shard
// publication, and per-strategy evaluation. Build one with
// NewEngineMetrics and set it on Config.Metrics; the nil hook — the zero
// Config — disables every observation at zero cost (no clock reads, no
// allocation), and observations never influence results, so reports stay
// byte-identical at any parallelism with metrics on or off.
//
// Concurrency: immutable after NewEngineMetrics; the observe hooks are
// called concurrently by strategy and shard workers and delegate to obs
// atomics.
type EngineMetrics struct {
	publishSeconds  *obs.Histogram
	evaluateSeconds *obs.Histogram
	shardSeconds    *obs.Histogram
	strategySeconds *obs.Histogram
}

// NewEngineMetrics registers the engine instrument families on reg and
// returns the hook for Config.Metrics. Nil-safe: a nil registry yields a
// nil *EngineMetrics.
func NewEngineMetrics(reg *obs.Registry) *EngineMetrics {
	if reg == nil {
		return nil
	}
	return &EngineMetrics{
		publishSeconds: reg.Histogram("apisense_core_publish_seconds",
			"End-to-end latency of one Publish run: evaluation of the whole portfolio, selection and pseudonymisation.",
			obs.LatencyBuckets),
		evaluateSeconds: reg.Histogram("apisense_core_evaluate_seconds",
			"End-to-end latency of one Evaluate run (pure scorecard, no release).",
			obs.LatencyBuckets),
		shardSeconds: reg.Histogram("apisense_core_shard_publish_seconds",
			"Latency of one shard's strategy selection inside PublishSharded.",
			obs.LatencyBuckets),
		strategySeconds: reg.Histogram("apisense_core_strategy_eval_seconds",
			"Latency of one strategy's evaluation: one pass protecting, scoring and extracting stays per trajectory, then place matching.",
			obs.LatencyBuckets),
	}
}

// start samples the wall clock for the observe hooks; no clock read (zero
// time) on a nil receiver, keeping the disabled path free.
func (em *EngineMetrics) start() time.Time {
	if em == nil {
		return time.Time{}
	}
	return time.Now()
}

// observePublish records one Publish run started at t0. Nil-safe.
func (em *EngineMetrics) observePublish(t0 time.Time) {
	if em == nil {
		return
	}
	em.publishSeconds.Observe(time.Since(t0).Seconds())
}

// observeEvaluate records one Evaluate run started at t0. Nil-safe.
func (em *EngineMetrics) observeEvaluate(t0 time.Time) {
	if em == nil {
		return
	}
	em.evaluateSeconds.Observe(time.Since(t0).Seconds())
}

// observeShard records one shard selection started at t0. Nil-safe.
func (em *EngineMetrics) observeShard(t0 time.Time) {
	if em == nil {
		return
	}
	em.shardSeconds.Observe(time.Since(t0).Seconds())
}

// observeStrategy records one strategy evaluation started at t0. Nil-safe.
func (em *EngineMetrics) observeStrategy(t0 time.Time) {
	if em == nil {
		return
	}
	em.strategySeconds.Observe(time.Since(t0).Seconds())
}
