package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"apisense/internal/evalcache"
	"apisense/internal/geo"
	"apisense/internal/poi"
	"apisense/internal/trace"
)

// Evaluation caching (see the package documentation of internal/evalcache
// for the full design). This file holds the engine side of the wiring:
// cache-key derivation, the caching attacker extractor, the selection
// cache used by Publish/PublishSharded.
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

// fingerprints are the precomputed cache-key components of a Middleware.
// Three scopes keep sharing maximal: reference-POI entries depend only on
// the POI configuration, attacker extractions only on the attacker
// configuration, and selection results on everything evaluation-relevant.
// Parallelism and PseudonymKey are deliberately absent: reports are
// byte-identical for any Parallelism, and pseudonymisation is applied
// after the cached (pre-pseudonymisation) stage.
type fingerprints struct {
	selection string // full evaluation config + portfolio
	refPOI    string // reference-POI extraction config
	attack    string // attacker extraction config
}

// fingerprint hashes a canonical rendering of the evaluation-relevant
// configuration into a short hex string.
func (m *Middleware) fingerprint() fingerprints {
	c := m.cfg
	refPOI := hashFields("refpoi", c.POIConfig.MaxDistance, int64(c.POIConfig.MinDuration))
	atk := hashFields("attack", c.AttackRadius, int64(c.POIConfig.MinDuration))
	fields := []any{
		"selection", int(c.Objective), c.MaxPOIExposure, c.CellSize, c.TopK,
		c.POIConfig.MaxDistance, int64(c.POIConfig.MinDuration), c.AttackRadius,
	}
	for _, s := range m.strategies {
		fields = append(fields, s.Name())
	}
	return fingerprints{selection: hashFields(fields...), refPOI: refPOI, attack: atk}
}

// hashFields renders each field with %v separated by keySep and returns
// the first 16 hex digits of the SHA-256 digest.
func hashFields(fields ...any) string {
	h := sha256.New()
	for _, f := range fields {
		fmt.Fprintf(h, "%v%s", f, keySep)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func selectionKey(fp string, ds [trace.HashSize]byte) string {
	return "sel" + keySep + fp + keySep + hex.EncodeToString(ds[:])
}

func refPOIKey(fp string, user [trace.HashSize]byte) string {
	return "poi" + keySep + fp + keySep + hex.EncodeToString(user[:])
}

func attackKey(fp string, tr [trace.HashSize]byte) string {
	return "atk" + keySep + fp + keySep + hex.EncodeToString(tr[:])
}

// contentHashes are the content hashes of one run's raw dataset: every
// trajectory's, in dataset order, and the whole dataset's (their
// combination). A run computes them once and derives every raw-side key
// from them — the selection key and the per-user reference-POI keys.
// Without a cache they are left zero.
type contentHashes struct {
	trajectories [][trace.HashSize]byte
	dataset      [trace.HashSize]byte
}

func (m *Middleware) hashContent(raw *trace.Dataset) contentHashes {
	if m.cache == nil {
		return contentHashes{}
	}
	th := raw.TrajectoryHashes()
	return contentHashes{trajectories: th, dataset: trace.CombineHashes(th...)}
}

// ---- cost estimates ----

// Approximate per-element retained sizes, used as evalcache costs. They
// only need to be proportionate — the cache bound is an order-of-magnitude
// memory control, not an accountant.
const (
	recordCost     = 56  // trace.Record: Time (24) + Pos (16) + Accuracy (8) + padding
	trajectoryCost = 64  // slice headers + User header + pointer overhead
	poiCost        = 88  // poi.POI: Center (16) + Enter/Leave (48) + Fixes (8) + padding
	pointCost      = 16  // geo.Point
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

// ---- caching attacker extractor ----

// cachingExtractor memoises attacker stay-point extraction per protected
// trajectory. Mechanisms are deterministic (randomness derives from the
// trajectory identity), so an unchanged raw trajectory yields a byte-
// identical protected trajectory and the simulated attack can reuse the
// prior extraction. Cached slices are immutable by contract: poi.ExtractAll
// copies the values it aggregates and poi.Merge never mutates its input.
type cachingExtractor struct {
	inner poi.Extractor
	cache evalcache.Cache
	fp    string
}

func (c cachingExtractor) Extract(t *trace.Trajectory) []poi.POI {
	key := attackKey(c.fp, t.ContentHash())
	if v, ok := c.cache.Get(key); ok {
		return v.([]poi.POI)
	}
	pois := c.inner.Extract(t)
	c.cache.Put(key, pois, int64(len(pois))*poiCost+keyCost)
	return pois
}

// ---- per-user reference-POI memoization ----

// referencePOIs is ReferencePOIs with per-user memoization: users whose
// trajectory set is unchanged since a prior publication reuse their
// extracted reference POIs. hashes are raw's trajectory hashes (see
// contentHashes); each user's key combines theirs, in dataset order.
// Without a cache it falls through to the uncached path. The result is
// identical to ReferencePOIs: a user appears iff extraction found at least
// one POI (empty extractions are memoised too, as an empty marker). The
// point slices are shared with the cache; the engine only reads them.
func (m *Middleware) referencePOIs(raw *trace.Dataset, hashes [][trace.HashSize]byte) (map[string][]geo.Point, error) {
	if m.cache == nil {
		return m.ReferencePOIs(raw)
	}
	type userSet struct {
		trs    []*trace.Trajectory
		hashes [][trace.HashSize]byte
	}
	users := make(map[string]*userSet)
	for i, t := range raw.Trajectories {
		u := users[t.User]
		if u == nil {
			u = &userSet{}
			users[t.User] = u
		}
		u.trs = append(u.trs, t)
		u.hashes = append(u.hashes, hashes[i])
	}
	out := make(map[string][]geo.Point)
	for user, u := range users {
		key := refPOIKey(m.fp.refPOI, trace.CombineHashes(u.hashes...))
		if v, ok := m.cache.Get(key); ok {
			if pts := v.([]geo.Point); len(pts) > 0 {
				out[user] = pts
			}
			continue
		}
		var pois []poi.POI
		for _, t := range u.trs {
			pois = append(pois, m.refExtractor.Extract(t)...)
		}
		var pts []geo.Point
		if len(pois) > 0 {
			places := poi.Merge(pois, refPOIMergeRadius)
			pts = make([]geo.Point, len(places))
			for i, p := range places {
				pts[i] = p.Center
			}
			out[user] = pts
		}
		m.cache.Put(key, pts, int64(len(pts))*pointCost+keyCost)
	}
	return out, nil
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

// loadSelection returns the shared cached selection for the dataset hash,
// if present.
func (m *Middleware) loadSelection(hash [trace.HashSize]byte) (*cachedSelection, bool) {
	if m.cache == nil {
		return nil, false
	}
	v, ok := m.cache.Get(selectionKey(m.fp.selection, hash))
	if !ok {
		return nil, false
	}
	return v.(*cachedSelection), true
}

// storeSelection caches a selection result under the dataset hash. The
// cache takes the result as it is; the caller must not modify it
// afterwards.
func (m *Middleware) storeSelection(hash [trace.HashSize]byte, cs *cachedSelection) {
	if m.cache == nil {
		return
	}
	cost := evalsCost(cs.evals) + datasetCost(cs.prot) + keyCost
	m.cache.Put(selectionKey(m.fp.selection, hash), cs, cost)
}

// refPOIMergeRadius is the per-user place-merge radius of ReferencePOIs,
// shared with the cached path.
const refPOIMergeRadius = 250
