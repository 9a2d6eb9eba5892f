package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"apisense/internal/geo"
	"apisense/internal/otrace"
	"apisense/internal/par"
	"apisense/internal/trace"
)

// ShardBy is a pluggable partitioning policy: it assigns every trajectory
// of a dataset to a named shard. Policies must be deterministic — the same
// dataset must always produce the same assignment — because the sharded
// publication report is required to be byte-identical across runs.
//
// Shards are evaluated independently by the publication engine, so a policy
// should group trajectories that form a coherent release unit (a region
// grid-cell, a time window, a stable user bucket).
type ShardBy interface {
	// Name identifies the policy in reports (e.g. "cell(size=2000)").
	Name() string
	// Assign returns one shard key per trajectory of raw, in trajectory
	// order. An empty key drops the trajectory from the sharded release
	// (used for trajectories a policy cannot place, e.g. empty ones).
	Assign(raw *trace.Dataset) ([]string, error)
}

// shardByCell partitions by region: each trajectory goes to the grid cell
// containing its first record.
type shardByCell struct {
	cellMeters float64
}

// NewShardByCell returns the region policy: a square grid of cellMeters is
// laid over the dataset's bounding box and each trajectory is assigned to
// the cell of its first record. cellMeters must be positive.
func NewShardByCell(cellMeters float64) (ShardBy, error) {
	if cellMeters <= 0 {
		return nil, fmt.Errorf("core: shard cell size must be positive, got %v", cellMeters)
	}
	return shardByCell{cellMeters: cellMeters}, nil
}

func (s shardByCell) Name() string { return fmt.Sprintf("cell(size=%.0fm)", s.cellMeters) }

func (s shardByCell) Assign(raw *trace.Dataset) ([]string, error) {
	box, ok := raw.BBox()
	if !ok {
		return nil, fmt.Errorf("core: cannot shard an empty dataset by cell")
	}
	grid, err := geo.NewGrid(box, s.cellMeters)
	if err != nil {
		return nil, fmt.Errorf("core: shard grid: %w", err)
	}
	keys := make([]string, raw.Len())
	for i, t := range raw.Trajectories {
		if len(t.Records) == 0 {
			continue // empty key: dropped
		}
		c := grid.CellOf(t.Records[0].Pos)
		keys[i] = fmt.Sprintf("cell/r%04dc%04d", c.Row, c.Col)
	}
	return keys, nil
}

// shardByWindow partitions by time: each trajectory goes to the window
// containing its first record.
type shardByWindow struct {
	window time.Duration
}

// NewShardByWindow returns the time-window policy: trajectories are
// assigned to fixed UTC windows of the given duration (their first record
// decides the window; a trajectory is "typically one day of data", §3 of
// the paper, so it rarely straddles a boundary). Callers holding one long
// trajectory per user (e.g. after a CSV round-trip) should split it first —
// Dataset.SplitDays — or every trajectory lands in the first window.
// window must be positive.
func NewShardByWindow(window time.Duration) (ShardBy, error) {
	if window <= 0 {
		return nil, fmt.Errorf("core: shard window must be positive, got %v", window)
	}
	return shardByWindow{window: window}, nil
}

func (s shardByWindow) Name() string { return fmt.Sprintf("window(%s)", s.window) }

func (s shardByWindow) Assign(raw *trace.Dataset) ([]string, error) {
	keys := make([]string, raw.Len())
	for i, t := range raw.Trajectories {
		if len(t.Records) == 0 {
			continue
		}
		start := t.Records[0].Time.UTC().Truncate(s.window)
		keys[i] = "window/" + start.Format(time.RFC3339)
	}
	return keys, nil
}

// shardByUser partitions by stable user hash, giving evenly-sized shards
// regardless of spatial or temporal skew.
type shardByUser struct {
	buckets int
}

// NewShardByUser returns the user-hash policy: each user's trajectories are
// assigned to one of buckets shards by FNV-1a hash of the user identifier,
// so a user's whole history stays in one shard. buckets must be positive.
func NewShardByUser(buckets int) (ShardBy, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("core: shard buckets must be positive, got %d", buckets)
	}
	return shardByUser{buckets: buckets}, nil
}

func (s shardByUser) Name() string { return fmt.Sprintf("user(buckets=%d)", s.buckets) }

func (s shardByUser) Assign(raw *trace.Dataset) ([]string, error) {
	keys := make([]string, raw.Len())
	for i, t := range raw.Trajectories {
		h := fnv.New32a()
		h.Write([]byte(t.User))
		keys[i] = fmt.Sprintf("user/bucket-%03d", h.Sum32()%uint32(s.buckets))
	}
	return keys, nil
}

// ShardPolicyFromSpec parses a textual shard policy, mirroring
// lppm.FromSpec:
//
//	cell:size=2000       region grid cells of 2000 m (default 2000)
//	window:dur=24h       UTC time windows of 24h (default 24h)
//	user:buckets=8       stable user-hash buckets (default 8)
func ShardPolicyFromSpec(spec string) (ShardBy, error) {
	name, args, _ := strings.Cut(spec, ":")
	params := map[string]string{}
	if args != "" {
		for _, kv := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("core: shard spec %q: bad parameter %q", spec, kv)
			}
			params[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	switch name {
	case "cell":
		size := 2000.0
		if v, ok := params["size"]; ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("core: shard spec %q: bad size %q", spec, v)
			}
			size = f
		}
		return NewShardByCell(size)
	case "window":
		dur := 24 * time.Hour
		if v, ok := params["dur"]; ok {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("core: shard spec %q: bad dur %q: %v", spec, v, err)
			}
			dur = d
		}
		return NewShardByWindow(dur)
	case "user":
		buckets := 8
		if v, ok := params["buckets"]; ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("core: shard spec %q: bad buckets %q", spec, v)
			}
			buckets = n
		}
		return NewShardByUser(buckets)
	default:
		return nil, fmt.Errorf("core: unknown shard policy %q (want cell, window or user)", name)
	}
}

// Shard is one partition of a dataset: the shard key and the trajectories
// assigned to it, in input order.
type Shard struct {
	Key  string
	Data *trace.Dataset
}

// Partition splits raw into shards according to by. Shards are returned in
// ascending key order regardless of trajectory order, and every trajectory
// with a non-empty key appears in exactly one shard. Trajectory data is
// shared with raw, not copied.
func Partition(raw *trace.Dataset, by ShardBy) ([]Shard, error) {
	keys, err := by.Assign(raw)
	if err != nil {
		return nil, err
	}
	if len(keys) != raw.Len() {
		return nil, fmt.Errorf("core: policy %s assigned %d keys for %d trajectories", by.Name(), len(keys), raw.Len())
	}
	byKey := make(map[string]*Shard)
	var order []string
	for i, key := range keys {
		if key == "" {
			continue
		}
		sh, ok := byKey[key]
		if !ok {
			sh = &Shard{Key: key, Data: trace.NewDataset()}
			byKey[key] = sh
			order = append(order, key)
		}
		sh.Data.Add(raw.Trajectories[i])
	}
	sort.Strings(order)
	out := make([]Shard, len(order))
	for i, key := range order {
		out[i] = *byKey[key]
	}
	return out, nil
}

// ShardOutcome is one shard's entry in a sharded publication report.
type ShardOutcome struct {
	// Key is the shard key assigned by the policy.
	Key string
	// Trajectories and Records count the shard's raw input.
	Trajectories int
	Records      int
	// Chosen is the winning strategy for this shard; empty when no
	// strategy met the floor, in which case the shard is withheld from the
	// merged release.
	Chosen string
	// Exposure is the chosen strategy's POI-exposure F1 (0 when withheld).
	Exposure float64
	// Utility is the chosen strategy's objective utility (0 when
	// withheld).
	Utility float64
	// Released is the number of trajectories the shard contributes to the
	// merged release.
	Released int
	// Evaluations holds the shard's full scorecard, in portfolio order.
	Evaluations []Evaluation
}

// ShardedSelection is the merged report of a sharded publication. The
// merge rules follow the conservative composition of per-shard guarantees:
// privacy is the worst shard (an attacker attacks the weakest partition),
// utility is the size-weighted mean over released shards (a consumer's
// aggregate query spans shards in proportion to their data).
type ShardedSelection struct {
	// Objective and Floor echo the configuration.
	Objective Objective
	Floor     float64
	// Policy is the partitioning policy name.
	Policy string
	// Shards holds the per-shard outcomes in ascending key order.
	Shards []ShardOutcome
	// WorstExposure is the maximum chosen-strategy exposure across
	// released shards, and WorstShard the key it occurred in. The merged
	// release's privacy guarantee is the worst shard's.
	WorstExposure float64
	WorstShard    string
	// Utility, HotspotOverlap and TrafficUtility are record-weighted means
	// over released shards.
	Utility        float64
	HotspotOverlap float64
	TrafficUtility float64
	// Released counts trajectories in the merged release; Withheld counts
	// raw trajectories of shards that met no strategy.
	Released int
	Withheld int
}

// publishShard runs the selection engine on one shard with the given
// worker budget, returning the scorecard and the winner's protected data.
// Selection is cached per shard-content hash (see selectStrategies), so an
// incremental re-publication only evaluates the shards whose data changed.
func (m *Middleware) publishShard(ctx context.Context, sh Shard, budget int) (_ *cachedSelection, err error) {
	t0 := m.cfg.Metrics.start()
	defer m.cfg.Metrics.observeShard(t0)
	// Shard keys are policy-derived (grid cells, time windows, hash
	// buckets), never user identifiers, so they are telemetry-safe.
	ctx, sp := m.cfg.Tracer.Start(ctx, "core.shard", otrace.String("key", sh.Key))
	defer func() { endSpan(sp, err) }()
	cs, err := m.selectStrategies(ctx, sh.Data, budget)
	if err != nil {
		return nil, fmt.Errorf("core: shard %s: %w", sh.Key, err)
	}
	return cs, nil
}

// PublishShardedContext partitions raw with by, runs the strategy-selection
// engine on every shard, and merges the per-shard winners into one released
// dataset plus an aggregate report. Each shard independently selects the
// strategy that maximises the configured objective subject to the privacy
// floor, so different regions or time windows may be protected by different
// mechanisms.
//
// The Config.Parallelism budget is shared globally across shards: with P
// workers and K shards, min(P, K) shards are evaluated concurrently and
// each divides its share of the budget between strategy and trajectory
// workers, so sharding never oversubscribes the pool.
//
// Shards where no strategy meets the floor are withheld from the release
// (their raw data is not published in any form) and reported with an empty
// Chosen. When every shard is withheld the error is ErrNoStrategy. The
// merged release concatenates shards in ascending key order (within-shard
// trajectory order is preserved) and is pseudonymised once, after merging,
// so pseudonyms are consistent across shards. The report and release are
// byte-identical for any Config.Parallelism. The run is abandoned promptly
// when ctx is cancelled.
func (m *Middleware) PublishShardedContext(ctx context.Context, raw *trace.Dataset, by ShardBy) (_ *trace.Dataset, _ *ShardedSelection, err error) {
	t0 := m.cfg.Metrics.start()
	defer m.cfg.Metrics.observePublish(t0)
	if by == nil {
		return nil, nil, fmt.Errorf("core: a shard policy is required (use PublishContext for monolithic releases)")
	}
	ctx, sp := m.cfg.Tracer.Start(ctx, "core.publish_sharded", otrace.String("policy", by.Name()))
	defer func() { endSpan(sp, err) }()
	_, psp := m.cfg.Tracer.Start(ctx, "core.partition")
	shards, perr := Partition(raw, by)
	if perr != nil {
		endSpan(psp, perr)
		return nil, nil, perr
	}
	psp.SetAttr(otrace.Int("shards", len(shards)))
	psp.End()
	if len(shards) == 0 {
		return nil, nil, fmt.Errorf("core: policy %s produced no shards", by.Name())
	}

	// Split the global budget: outer shards in flight, inner workers each.
	outer := m.cfg.Parallelism
	if outer > len(shards) {
		outer = len(shards)
	}
	inner := m.cfg.Parallelism / outer

	results := make([]*cachedSelection, len(shards))
	err = par.For(ctx, len(shards), outer, func(ctx context.Context, i int) error {
		res, err := m.publishShard(ctx, shards[i], inner)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	_, msp := m.cfg.Tracer.Start(ctx, "core.merge")
	sel := &ShardedSelection{
		Objective: m.cfg.Objective,
		Floor:     m.cfg.MaxPOIExposure,
		Policy:    by.Name(),
		Shards:    make([]ShardOutcome, len(shards)),
	}
	release := trace.NewDataset()
	var wUtil, wOverlap, wTraffic, wSum float64
	for i, sh := range shards {
		res := results[i]
		out := ShardOutcome{
			Key:          sh.Key,
			Trajectories: sh.Data.Len(),
			Records:      sh.Data.NumRecords(),
			Evaluations:  m.scorecard(res.evals),
		}
		if res.winIdx >= 0 {
			win := res.evals[res.winIdx]
			out.Chosen = win.Strategy
			out.Exposure = win.Privacy.F1()
			out.Utility = win.Utility
			out.Released = res.prot.Len()
			for _, tr := range res.prot.Trajectories {
				release.Add(tr)
			}
			if out.Exposure > sel.WorstExposure || sel.WorstShard == "" {
				sel.WorstExposure, sel.WorstShard = out.Exposure, sh.Key
			}
			w := float64(out.Records)
			wUtil += w * win.Utility
			wOverlap += w * win.HotspotOverlap
			wTraffic += w * win.TrafficUtility
			wSum += w
			sel.Released += out.Released
		} else {
			sel.Withheld += sh.Data.Len()
		}
		sel.Shards[i] = out
	}
	if wSum > 0 {
		sel.Utility = wUtil / wSum
		sel.HotspotOverlap = wOverlap / wSum
		sel.TrafficUtility = wTraffic / wSum
	}
	msp.SetAttr(otrace.Int("released", sel.Released), otrace.Int("withheld", sel.Withheld))
	msp.End()
	if sel.Released == 0 {
		return nil, sel, ErrNoStrategy
	}
	if release, err = m.handOut(release); err != nil {
		return nil, sel, err
	}
	return release, sel, nil
}

// PublishSharded is PublishShardedContext with a background context.
func (m *Middleware) PublishSharded(raw *trace.Dataset, by ShardBy) (*trace.Dataset, *ShardedSelection, error) {
	//lint:allow ctxflow convenience wrapper, PublishShardedContext is the cancellable form
	return m.PublishShardedContext(context.Background(), raw, by)
}
