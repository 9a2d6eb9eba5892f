package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"apisense/internal/evalcache"
	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

// marshal serialises any report or dataset for byte-level comparison.
func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newCached(t *testing.T, cache evalcache.Cache, parallelism int) *Middleware {
	t.Helper()
	m, err := New(Config{Parallelism: parallelism, PseudonymKey: []byte("warm"), Cache: cache}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPublishColdWarmByteIdentical: for unchanged data the cached engine
// must reproduce the uncached selection report and release byte for byte,
// at any parallelism, whether the result is computed or served warm.
func TestPublishColdWarmByteIdentical(t *testing.T) {
	ds := fixture(t)
	mCold, err := New(Config{Parallelism: 1, PseudonymKey: []byte("warm")}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	coldRel, coldSel, err := mCold.PublishContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, wantRel := marshal(t, coldSel), marshal(t, coldRel)

	cache := evalcache.NewLRU(0)
	newCached(t, cache, 3).mustPublish(t, ds) // warm the shared cache once
	for _, parallelism := range []int{1, 3, 8} {
		rel, sel, err := newCached(t, cache, parallelism).PublishContext(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		if got := marshal(t, sel); got != wantSel {
			t.Errorf("parallelism %d: warm selection differs from cold:\ncold: %s\nwarm: %s", parallelism, wantSel, got)
		}
		if got := marshal(t, rel); got != wantRel {
			t.Errorf("parallelism %d: warm release differs from cold", parallelism)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("warm publishes produced no cache hits: %+v", st)
	}
}

func (m *Middleware) mustPublish(t *testing.T, ds *trace.Dataset) {
	t.Helper()
	if _, _, err := m.PublishContext(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
}

// TestPublishShardedColdWarmByteIdentical: same contract for the sharded
// pipeline — warm shard-level hits must reproduce the cold merged report
// and release exactly.
func TestPublishShardedColdWarmByteIdentical(t *testing.T) {
	ds := fixture(t)
	by, err := NewShardByUser(4)
	if err != nil {
		t.Fatal(err)
	}
	mCold, err := New(Config{Parallelism: 1, PseudonymKey: []byte("warm")}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	coldRel, coldSel, err := mCold.PublishShardedContext(context.Background(), ds, by)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, wantRel := marshal(t, coldSel), marshal(t, coldRel)

	cache := evalcache.NewLRU(0)
	if _, _, err := newCached(t, cache, 3).PublishShardedContext(context.Background(), ds, by); err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 3, 8} {
		rel, sel, err := newCached(t, cache, parallelism).PublishShardedContext(context.Background(), ds, by)
		if err != nil {
			t.Fatal(err)
		}
		if got := marshal(t, sel); got != wantSel {
			t.Errorf("parallelism %d: warm sharded selection differs from cold", parallelism)
		}
		if got := marshal(t, rel); got != wantRel {
			t.Errorf("parallelism %d: warm sharded release differs from cold", parallelism)
		}
	}
}

// TestReleaseMutationCannotPoisonCache: cached selections are shared, so
// the release and report a caller receives must be its own copies. Every
// publication's output is overwritten before the next; each must still
// match a cold publication byte for byte.
func TestReleaseMutationCannotPoisonCache(t *testing.T) {
	ds := fixture(t)
	by, err := NewShardByUser(4)
	if err != nil {
		t.Fatal(err)
	}
	poison := func(rel *trace.Dataset, evals ...[]Evaluation) {
		for _, tr := range rel.Trajectories {
			tr.User = "poisoned"
			for i := range tr.Records {
				tr.Records[i] = trace.Record{Accuracy: -1}
			}
		}
		for _, es := range evals {
			for i := range es {
				es[i] = Evaluation{Strategy: "poisoned"}
			}
		}
	}
	for _, key := range [][]byte{nil, []byte("warm")} {
		for _, sharded := range []bool{false, true} {
			name := fmt.Sprintf("sharded=%v/pseudonyms=%v", sharded, key != nil)
			publish := func(m *Middleware) (*trace.Dataset, any, [][]Evaluation) {
				if !sharded {
					rel, sel, err := m.PublishContext(context.Background(), ds)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return rel, sel, [][]Evaluation{sel.Evaluations}
				}
				rel, sel, err := m.PublishShardedContext(context.Background(), ds, by)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var evals [][]Evaluation
				for _, sh := range sel.Shards {
					evals = append(evals, sh.Evaluations)
				}
				return rel, sel, evals
			}
			cold, err := New(Config{Parallelism: 2, PseudonymKey: key}, lyon)
			if err != nil {
				t.Fatal(err)
			}
			rel, sel, _ := publish(cold)
			wantRel, wantSel := marshal(t, rel), marshal(t, sel)

			warm, err := New(Config{Parallelism: 2, PseudonymKey: key, Cache: evalcache.NewLRU(0)}, lyon)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 5; k++ { // fill, warm, then three republications
				rel, sel, evals := publish(warm)
				if marshal(t, rel) != wantRel {
					t.Errorf("%s: publication %d: release differs from cold", name, k)
				}
				if marshal(t, sel) != wantSel {
					t.Errorf("%s: publication %d: report differs from cold", name, k)
				}
				poison(rel, evals...)
			}
		}
	}
}

// TestWarmPublishSkipsProtection: an unchanged dataset must be served
// entirely from the selection cache — the mechanisms never run again.
func TestWarmPublishSkipsProtection(t *testing.T) {
	ds := fixture(t)
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingMechanism{inner: sm}
	m, err := New(Config{
		Strategies:  []lppm.Mechanism{counter},
		Parallelism: 2,
		Cache:       evalcache.NewLRU(0),
	}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	m.mustPublish(t, ds)
	cold := counter.calls.Load()
	m.mustPublish(t, ds)
	if got := counter.calls.Load(); got != cold {
		t.Errorf("warm publish protected %d extra trajectories, want 0", got-cold)
	}
}

// TestConfigChangeInvalidates: a middleware with a different evaluation
// configuration sharing the same cache must not be served the other's
// entries — a different TopK, or a strategy whose name is the same but
// whose seed or cloaking origin is not — while a middleware with an
// identical configuration is.
func TestConfigChangeInvalidates(t *testing.T) {
	ds := fixture(t)
	cache := evalcache.NewLRU(0)
	build := func(topK int) (*Middleware, *countingMechanism) {
		sm, err := lppm.NewSpeedSmoothing(100, 2)
		if err != nil {
			t.Fatal(err)
		}
		counter := &countingMechanism{inner: sm}
		m, err := New(Config{
			Strategies:  []lppm.Mechanism{counter},
			TopK:        topK,
			Parallelism: 2,
			Cache:       cache,
		}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		return m, counter
	}
	m1, _ := build(20)
	m1.mustPublish(t, ds)
	m2, c2 := build(10)
	m2.mustPublish(t, ds)
	if c2.calls.Load() == 0 {
		t.Error("changed config was served the old config's cached selection")
	}
	m3, c3 := build(20)
	m3.mustPublish(t, ds)
	if got := c3.calls.Load(); got != 0 {
		t.Errorf("an identical config protected %d trajectories, want a warm hit", got)
	}

	geoind := func(seed uint64) lppm.Mechanism {
		m, err := lppm.NewGeoInd(0.002, seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cloaking := func(origin geo.Point) lppm.Mechanism {
		m, err := lppm.NewCloaking(800, origin)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// publish returns the release and report of a one-strategy portfolio,
	// whether or not the strategy meets the floor.
	publish := func(s lppm.Mechanism, cache evalcache.Cache) string {
		m, err := New(Config{Strategies: []lppm.Mechanism{s}, Parallelism: 2, Cache: cache}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		rel, sel, err := m.PublishContext(context.Background(), ds)
		if err != nil && !errors.Is(err, ErrNoStrategy) {
			t.Fatal(err)
		}
		return marshal(t, rel) + marshal(t, sel)
	}
	for name, pair := range map[string][2]lppm.Mechanism{
		"seed":   {geoind(1), geoind(2)},
		"origin": {cloaking(lyon), cloaking(geo.Point{Lat: lyon.Lat + 0.003, Lon: lyon.Lon + 0.003})},
	} {
		if pair[0].Name() != pair[1].Name() {
			t.Fatalf("%s: the names differ, the case tests nothing", name)
		}
		shared := evalcache.NewLRU(0)
		publish(pair[0], shared)
		if publish(pair[1], shared) != publish(pair[1], nil) {
			t.Errorf("%s: a middleware was served another's cached selection", name)
		}
	}
}

// grown returns ds plus a copy of its first trajectory under a new user, so
// every strategy's released count and coverage can only rise.
func grown(ds *trace.Dataset) *trace.Dataset {
	g := ds.Clone()
	extra := ds.Trajectories[0].Clone()
	extra.User = "extra-user"
	g.Add(extra)
	return g
}

// shifted is the republication workload's input i: ds with users 2i and
// 2i+1 (modulo the user count) moved north by (i+1)*1e-5 degrees, everyone
// else unchanged.
func shifted(ds *trace.Dataset, i int) *trace.Dataset {
	users := ds.Users()
	a, b := users[(2*i)%len(users)], users[(2*i+1)%len(users)]
	out := trace.NewDataset()
	for _, tr := range ds.Trajectories {
		if tr.User == a || tr.User == b {
			tr = tr.Clone()
			for k := range tr.Records {
				tr.Records[k].Pos.Lat += float64(i+1) * 1e-5
			}
		}
		out.Add(tr)
	}
	return out
}

// TestWarmPublicationMatchesCold: a cache only memoises, it never skips
// work on a guess, so a warm publication of changed input — after the cache
// has seen strategies fail the floor on earlier content — reports and
// releases exactly what a cache-less publication of the same input does.
func TestWarmPublicationMatchesCold(t *testing.T) {
	smoothing, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Identity releases everything and fails any floor below 1.
	failing := []lppm.Mechanism{lppm.Identity{}, smoothing}
	byUser, err := NewShardByUser(4)
	if err != nil {
		t.Fatal(err)
	}
	republishBy, err := ShardPolicyFromSpec("user:buckets=32")
	if err != nil {
		t.Fatal(err)
	}
	// publish returns the report JSON and the release hash (zero when no
	// strategy met the floor).
	publish := func(t *testing.T, m *Middleware, ds *trace.Dataset, by ShardBy) (string, [trace.HashSize]byte) {
		t.Helper()
		var rel *trace.Dataset
		var report any
		var err error
		if by == nil {
			rel, report, err = m.PublishContext(context.Background(), ds)
		} else {
			rel, report, err = m.PublishShardedContext(context.Background(), ds, by)
		}
		if err != nil && !errors.Is(err, ErrNoStrategy) {
			t.Fatal(err)
		}
		var hash [trace.HashSize]byte
		if rel != nil {
			hash = rel.ContentHash()
		}
		return marshal(t, report), hash
	}
	// check publishes each input through one cached middleware in turn and
	// compares every outcome with a fresh cache-less publication.
	check := func(t *testing.T, cfg Config, center geo.Point, by ShardBy, inputs ...*trace.Dataset) {
		t.Helper()
		cold, err := New(cfg, center)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = evalcache.NewLRU(0)
		warm, err := New(cfg, center)
		if err != nil {
			t.Fatal(err)
		}
		for k, ds := range inputs {
			gotReport, gotHash := publish(t, warm, ds, by)
			wantReport, wantHash := publish(t, cold, ds, by)
			if gotReport != wantReport {
				t.Errorf("publication %d: warm report differs from cold:\ncold: %s\nwarm: %s", k, wantReport, gotReport)
			}
			if gotHash != wantHash {
				t.Errorf("publication %d: warm release differs from cold", k)
			}
		}
	}

	ds := fixture(t)
	grownCfg := Config{Strategies: failing, Parallelism: 2, PseudonymKey: []byte("warm")}
	t.Run("grown/monolithic", func(t *testing.T) {
		check(t, grownCfg, lyon, nil, ds, grown(ds))
	})
	t.Run("grown/by-user", func(t *testing.T) {
		check(t, grownCfg, lyon, byUser, ds, grown(ds))
	})
	for _, seed := range []uint64{1, 7} {
		t.Run(fmt.Sprintf("republish/seed=%d", seed), func(t *testing.T) {
			base, city, err := mobgen.Generate(mobgen.Config{Seed: seed, Users: 6, Days: 2})
			if err != nil {
				t.Fatal(err)
			}
			inputs := []*trace.Dataset{base, base}
			for i := 0; i < 4; i++ {
				inputs = append(inputs, shifted(base, i))
			}
			check(t, Config{Parallelism: 2, PseudonymKey: []byte("warm")}, city.Center, republishBy, inputs...)
		})
	}
	t.Run("evaluate", func(t *testing.T) {
		mk := func(c evalcache.Cache) *Middleware {
			m, err := New(Config{
				Strategies:     []lppm.Mechanism{lppm.Identity{}},
				MaxPOIExposure: 0.1,
				Parallelism:    2,
				Cache:          c,
			}, lyon)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := mk(evalcache.NewLRU(0))
		if _, _, err := m.PublishContext(context.Background(), ds); !errors.Is(err, ErrNoStrategy) {
			t.Fatalf("err = %v, want ErrNoStrategy", err)
		}
		warm, err := m.EvaluateContext(context.Background(), grown(ds))
		if err != nil {
			t.Fatal(err)
		}
		bare, err := mk(nil).EvaluateContext(context.Background(), grown(ds))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshal(t, warm), marshal(t, bare); got != want {
			t.Errorf("cached Evaluate differs from uncached:\ncached: %s\nbare:   %s", got, want)
		}
	})
}

// TestCacheHoldsSelectionsOnly: the evaluation cache holds one entry per
// selection it computed — the whole dataset's or each shard's — and
// nothing per user or per trajectory. A cold monolithic publication stores
// one entry, a cold sharded one one per shard; republishing with one user
// changed adds one entry (per changed shard), and a scorecard-only
// Evaluate stores nothing.
func TestCacheHoldsSelectionsOnly(t *testing.T) {
	ds := fixture(t)
	by, err := NewShardByUser(4)
	if err != nil {
		t.Fatal(err)
	}
	// One user moved north; every other trajectory is shared with ds.
	moved := ds.Users()[0]
	changed := trace.NewDataset()
	for _, tr := range ds.Trajectories {
		if tr.User == moved {
			tr = tr.Clone()
			for k := range tr.Records {
				tr.Records[k].Pos.Lat += 1e-5
			}
		}
		changed.Add(tr)
	}
	entries := func(cache *evalcache.LRU) int { return cache.Stats().Entries }

	cache := evalcache.NewLRU(0)
	m := newCached(t, cache, 2)
	if _, err := m.EvaluateContext(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if got := entries(cache); got != 0 {
		t.Errorf("Evaluate stored %d entries, want 0", got)
	}
	m.mustPublish(t, ds)
	if got := entries(cache); got != 1 {
		t.Errorf("cold monolithic publication stored %d entries, want 1", got)
	}
	m.mustPublish(t, changed)
	if got := entries(cache); got != 2 {
		t.Errorf("republication with one changed user holds %d entries, want 2", got)
	}

	cache = evalcache.NewLRU(0)
	m = newCached(t, cache, 2)
	_, sel, err := m.PublishShardedContext(context.Background(), ds, by)
	if err != nil {
		t.Fatal(err)
	}
	shards := len(sel.Shards)
	if shards < 2 {
		t.Fatalf("%d shards, the case tests nothing", shards)
	}
	if got := entries(cache); got != shards {
		t.Errorf("cold sharded publication stored %d entries, want one per shard (%d)", got, shards)
	}
	if _, _, err := m.PublishShardedContext(context.Background(), changed, by); err != nil {
		t.Fatal(err)
	}
	if got := entries(cache); got != shards+1 {
		t.Errorf("republication with one changed user holds %d entries, want %d", got, shards+1)
	}
}

// TestConcurrentPublishSharedCache hammers one cache from concurrent
// publish calls over distinct middlewares and both pipelines (one dataset
// published monolithically, another sharded); run under -race (CI does).
// A small byte bound forces concurrent evictions. Every result must match
// its pipeline's uncached reference report, whichever entries another
// goroutine stored or evicted first.
func TestConcurrentPublishSharedCache(t *testing.T) {
	dsA := fixture(t)
	dsB, _, err := mobgen.Generate(mobgen.Config{Seed: 22, Users: 4, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	by, err := NewShardByUser(2)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(Config{Parallelism: 1}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	_, selA, err := cold.PublishContext(context.Background(), dsA)
	if err != nil {
		t.Fatal(err)
	}
	_, selB, err := cold.PublishShardedContext(context.Background(), dsB, by)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := marshal(t, selA), marshal(t, selB)

	cache := evalcache.NewLRU(1 << 20) // small bound: force evictions too
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				m, err := New(Config{Parallelism: 2, Cache: cache}, lyon)
				if err != nil {
					errs <- err
					return
				}
				var report any
				want := wantA
				if (g+i)%2 == 0 {
					_, sel, err := m.PublishContext(context.Background(), dsA)
					if err != nil {
						errs <- err
						return
					}
					report = sel
				} else {
					_, sel, err := m.PublishShardedContext(context.Background(), dsB, by)
					if err != nil {
						errs <- err
						return
					}
					report, want = sel, wantB
				}
				b, err := json.Marshal(report)
				if err != nil {
					errs <- err
					return
				}
				got := string(b)
				if got != want {
					errs <- fmt.Errorf("goroutine %d iter %d: concurrent selection diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
