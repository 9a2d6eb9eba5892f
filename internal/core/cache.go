package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"apisense/internal/lppm"
	"apisense/internal/trace"
)

// Evaluation caching (see the package documentation of internal/evalcache
// for the full design). This file holds the engine side of the wiring:
// cache-key derivation and the selection cache used by
// PublishContext/PublishShardedContext. The cache holds one kind of entry,
// the whole selection of a dataset or shard.
//
// Every key embeds a configuration fingerprint, so middlewares with
// different objectives, floors, grids or portfolios sharing one cache can
// never serve each other's entries; invalidation on config change is
// therefore automatic (a new fingerprint simply addresses fresh keys and
// the old entries age out of the LRU). Keys are content-addressed — equal
// key implies equal value — which is what keeps warm reports byte-
// identical to cold ones.

// keySep separates key segments. Shard keys and strategy names never
// contain it, so concatenated segments cannot collide.
const keySep = "\x1f"

// fingerprint hashes a canonical rendering of the evaluation-relevant
// configuration and portfolio — each field with %v, separated by keySep —
// into the first 16 hex digits of its SHA-256 digest, the selection-key
// scope. Parallelism and PseudonymKey are deliberately absent: reports are
// byte-identical for any Parallelism, and pseudonymisation is applied
// after the cached (pre-pseudonymisation) stage.
func (m *Middleware) fingerprint() string {
	c := m.cfg
	fields := []any{
		"selection", int(c.Objective), c.MaxPOIExposure, c.CellSize, c.TopK,
		c.POIConfig.MaxDistance, int64(c.POIConfig.MinDuration), c.AttackRadius,
	}
	for _, s := range m.strategies {
		fields = append(fields, lppm.Spec(s))
	}
	h := sha256.New()
	for _, f := range fields {
		fmt.Fprintf(h, "%v%s", f, keySep)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// selectionKey is raw's selection-cache key: the configuration fingerprint
// plus raw's content hash. Without a cache raw is not hashed and the key
// is empty.
func (m *Middleware) selectionKey(raw *trace.Dataset) string {
	if m.cache == nil {
		return ""
	}
	h := raw.ContentHash()
	return "sel" + keySep + m.fp + keySep + hex.EncodeToString(h[:])
}

// ---- cost estimates ----

// Approximate per-element retained sizes, used as evalcache costs. They
// only need to be proportionate — the cache bound is an order-of-magnitude
// memory control, not an accountant.
const (
	recordCost     = 32  // trace.Record: Time (8) + Pos (16) + Accuracy (8)
	trajectoryCost = 64  // slice headers + User header + pointer overhead
	evaluationCost = 160 // core.Evaluation scalars + name
	keyCost        = 96  // map key + LRU bookkeeping per entry
)

func datasetCost(d *trace.Dataset) int64 {
	if d == nil {
		return 0
	}
	cost := int64(d.Len()) * trajectoryCost
	for _, t := range d.Trajectories {
		cost += int64(len(t.User)) + int64(len(t.Records))*recordCost
	}
	return cost
}

func evalsCost(evals []Evaluation) int64 {
	cost := int64(len(evals)) * evaluationCost
	for _, ev := range evals {
		cost += int64(len(ev.Strategy))
	}
	return cost
}

// ---- selection cache ----

// cachedSelection is one whole selection result: the full scorecard, the
// winner's portfolio index and the winner's protected dataset before
// pseudonymisation. Stored under the selection fingerprint plus the
// dataset (or shard) content hash, so PublishShardedContext skips
// evaluation of unchanged shards entirely and monolithic re-publication
// of an unchanged dataset is a single lookup.
//
// A cached selection is immutable and shared: the engine stores the very
// scorecard and dataset the run produced, and every later run on the same
// content reads them in place. Nothing inside the engine writes to them;
// the one copy is made where a result leaves the engine (see
// Middleware.handOut and Middleware.scorecard).
type cachedSelection struct {
	evals  []Evaluation
	winIdx int            // -1 when no strategy met the floor
	prot   *trace.Dataset // nil when winIdx < 0
}

// loadSelection returns the shared cached selection stored under key, if
// present.
func (m *Middleware) loadSelection(key string) (*cachedSelection, bool) {
	if m.cache == nil {
		return nil, false
	}
	v, ok := m.cache.Get(key)
	if !ok {
		return nil, false
	}
	return v.(*cachedSelection), true
}

// storeSelection caches a selection result under key. The cache takes the
// result as it is; the caller must not modify it afterwards.
func (m *Middleware) storeSelection(key string, cs *cachedSelection) {
	if m.cache == nil {
		return
	}
	cost := evalsCost(cs.evals) + datasetCost(cs.prot) + keyCost
	m.cache.Put(key, cs, cost)
}
