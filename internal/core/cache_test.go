package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"apisense/internal/evalcache"
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
// entries.
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
}

// TestAdaptivePruning: after a full evaluation disqualified a strategy on
// a shard, re-publishing with grown data must skip its attack and report
// the pruning; the pruned strategy can never win, and unchanged data keeps
// reporting the full cold scorecard (served from the selection cache
// before pruning is consulted).
func TestAdaptivePruning(t *testing.T) {
	ds := fixture(t)
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	cache := evalcache.NewLRU(0)
	m, err := New(Config{
		// Identity releases everything and always fails a floor below 1.
		Strategies:  []lppm.Mechanism{lppm.Identity{}, sm},
		Parallelism: 2,
		Cache:       cache,
	}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	_, coldSel, err := m.PublishContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range coldSel.Evaluations {
		if ev.Pruned {
			t.Fatalf("cold run pruned %s", ev.Strategy)
		}
	}

	// Grow the dataset: every proxy of the failed identity release is now
	// at or above its recorded disqualification values.
	grown := ds.Clone()
	extra := ds.Trajectories[0].Clone()
	extra.User = "extra-user"
	grown.Add(extra)
	_, warmSel, err := m.PublishContext(context.Background(), grown)
	if err != nil {
		t.Fatal(err)
	}
	var id Evaluation
	for _, ev := range warmSel.Evaluations {
		if ev.Strategy == (lppm.Identity{}).Name() {
			id = ev
		}
	}
	if !id.Pruned {
		t.Fatalf("identity was not pruned on grown data: %+v", id)
	}
	if id.MeetsFloor || warmSel.Chosen == id.Strategy {
		t.Error("a pruned strategy must not meet the floor or be chosen")
	}
	if !strings.Contains(id.PrunedReason, "failed privacy floor") {
		t.Errorf("PrunedReason = %q, want the disqualification record", id.PrunedReason)
	}
	if id.Released != grown.Len() {
		t.Errorf("pruned evaluation released = %d, want proxy %d", id.Released, grown.Len())
	}
	if st := cache.Stats(); st.Pruned == 0 {
		t.Errorf("cache stats did not count the pruned strategy: %+v", st)
	}

	// Unchanged data still reports the full scorecard, not the pruned one.
	_, againSel, err := m.PublishContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, againSel), marshal(t, coldSel); got != want {
		t.Error("re-publishing the unchanged dataset no longer matches the cold report")
	}
}

// TestEvaluateNeverPrunes: Evaluate is a pure scorecard — even with a
// cache full of disqualification records it must run the full attack for
// every strategy and match the uncached result exactly.
func TestEvaluateNeverPrunes(t *testing.T) {
	ds := fixture(t)
	cache := evalcache.NewLRU(0)
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
	m := mk(cache)
	if _, _, err := m.PublishContext(context.Background(), ds); err != ErrNoStrategy {
		t.Fatalf("err = %v, want ErrNoStrategy", err)
	}
	grown := ds.Clone()
	extra := ds.Trajectories[0].Clone()
	extra.User = "extra-user"
	grown.Add(extra)
	warm, err := m.EvaluateContext(context.Background(), grown)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := mk(nil).EvaluateContext(context.Background(), grown)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, bare) {
		t.Errorf("cached Evaluate differs from uncached:\ncached: %+v\nbare:   %+v", warm, bare)
	}
	if warm[0].Pruned {
		t.Error("Evaluate must never prune")
	}
}

// TestReferencePOIsCachedMatchesUncached: the memoized reference-POI path
// must reproduce ReferencePOIs exactly, including which users appear,
// whether served cold or warm.
func TestReferencePOIsCachedMatchesUncached(t *testing.T) {
	ds := fixture(t)
	m := newCached(t, evalcache.NewLRU(0), 1)
	want, err := m.ReferencePOIs(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		got, err := m.referencePOIs(ds, ds.TrajectoryHashes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s referencePOIs differs from ReferencePOIs", pass)
		}
	}
}

// TestConcurrentPublishSharedCache hammers one cache from concurrent
// publish calls over distinct middlewares and both pipelines (one dataset
// published monolithically, another sharded); run under -race (CI does).
// A small byte bound forces concurrent evictions. Every result must match
// its pipeline's uncached reference report — the same-content pruning
// guard is what makes this hold even when prune records land before a
// selection entry does.
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
