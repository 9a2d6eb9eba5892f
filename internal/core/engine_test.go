package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"apisense/internal/evalcache"
	"apisense/internal/lppm"
	"apisense/internal/trace"
)

// TestEvaluateParallelismDeterminism: the engine's report must be
// byte-identical whether the portfolio runs sequentially or on a pool.
func TestEvaluateParallelismDeterminism(t *testing.T) {
	ds := fixture(t)
	run := func(parallelism int) *Selection {
		m, err := New(Config{Parallelism: parallelism, PseudonymKey: []byte("det")}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		_, sel, err := m.PublishContext(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("selection differs between Parallelism 1 and 8:\nseq: %+v\npar: %+v", seq, par)
	}
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqJSON) != string(parJSON) {
		t.Errorf("serialized selections not byte-identical:\nseq: %s\npar: %s", seqJSON, parJSON)
	}
}

// TestEvaluateContextMatchesEvaluate: the wrapper and the context entry
// point agree.
func TestEvaluateContextMatchesEvaluate(t *testing.T) {
	ds := fixture(t)
	m, err := New(Config{Parallelism: 4}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.EvaluateContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EvaluateContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Evaluate and EvaluateContext disagree")
	}
}

// TestPublishContextCancelled: a cancelled context aborts the publication
// promptly with context.Canceled instead of running the portfolio.
func TestPublishContextCancelled(t *testing.T) {
	ds := fixture(t)
	for _, parallelism := range []int{1, 4} {
		m, err := New(Config{Parallelism: parallelism}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, _, err = m.PublishContext(ctx, ds)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", parallelism, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("parallelism %d: cancelled publish took %s, want prompt return", parallelism, elapsed)
		}
	}
}

// TestEvaluateContextDeadline: cancellation mid-run (not just pre-run) also
// surfaces the context error.
func TestEvaluateContextDeadline(t *testing.T) {
	ds := fixture(t)
	m, err := New(Config{Parallelism: 2}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	if _, err := m.EvaluateContext(ctx, ds); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// countingMechanism wraps a mechanism and counts Protect calls; used to
// assert how often the engine runs a mechanism.
type countingMechanism struct {
	inner lppm.Mechanism
	calls atomic.Int64
}

func (c *countingMechanism) Name() string { return c.inner.Name() }

func (c *countingMechanism) Protect(dst []trace.Record, tr *trace.Trajectory) ([]trace.Record, error) {
	c.calls.Add(1)
	return c.inner.Protect(dst, tr)
}

// countedPortfolio is smoothing(eps=100) and geoind(eps=0.01), each behind
// a counter.
func countedPortfolio(t *testing.T) (*countingMechanism, *countingMechanism) {
	t.Helper()
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := lppm.NewGeoInd(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &countingMechanism{inner: sm}, &countingMechanism{inner: gi}
}

// TestEvaluateProtectsEachTrajectoryOnce: scoring a strategy runs its
// mechanism exactly once per raw trajectory — protection, scoring and the
// attack share one pass — at any parallelism, including the ones that
// split a strategy's users into ranges.
func TestEvaluateProtectsEachTrajectoryOnce(t *testing.T) {
	ds := fixture(t)
	for _, parallelism := range []int{1, 2, 3, 8} {
		a, b := countedPortfolio(t)
		m, err := New(Config{Strategies: []lppm.Mechanism{a, b}, Parallelism: parallelism}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.EvaluateContext(context.Background(), ds); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*countingMechanism{a, b} {
			if got, want := c.calls.Load(), int64(ds.Len()); got != want {
				t.Errorf("parallelism %d: Evaluate ran %s on %d trajectories, want %d", parallelism, c.Name(), got, want)
			}
		}
	}
}

// TestPublishProtectsWinnerTwice: a publication runs every strategy once
// per raw trajectory to score it, and the winner once more per trajectory
// to build the release — never a loser a second time.
func TestPublishProtectsWinnerTwice(t *testing.T) {
	ds := fixture(t)
	for _, parallelism := range []int{1, 4} {
		a, b := countedPortfolio(t)
		m, err := New(Config{Strategies: []lppm.Mechanism{a, b}, Parallelism: parallelism}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		_, sel, err := m.PublishContext(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*countingMechanism{a, b} {
			want := int64(ds.Len())
			if c.Name() == sel.Chosen {
				want *= 2
			}
			if got := c.calls.Load(); got != want {
				t.Errorf("parallelism %d: Publish (winner %s) ran %s on %d trajectories, want %d",
					parallelism, sel.Chosen, c.Name(), got, want)
			}
		}
	}
}

// TestRangeSplitMatchesSequential: a strategy given more than one worker
// scores its users in contiguous ranges and merges them; one- and
// two-strategy portfolios must report and release byte-identically at
// parallelism 1, 2, 3 and 8, monolithic and sharded.
func TestRangeSplitMatchesSequential(t *testing.T) {
	ds := fixture(t)
	policy := mustPolicy(t)(NewShardByWindow(48 * time.Hour))
	a, b := countedPortfolio(t)
	for name, portfolio := range map[string][]lppm.Mechanism{
		"one": {a.inner},
		"two": {a.inner, b.inner},
	} {
		var want string
		for _, parallelism := range []int{1, 2, 3, 8} {
			m, err := New(Config{Strategies: portfolio, Parallelism: parallelism, PseudonymKey: []byte("ranges")}, lyon)
			if err != nil {
				t.Fatal(err)
			}
			rel, sel, err := m.PublishContext(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			srel, ssel, err := m.PublishShardedContext(context.Background(), ds, policy)
			if err != nil {
				t.Fatal(err)
			}
			got := marshal(t, rel) + marshal(t, sel) + marshal(t, srel) + marshal(t, ssel)
			if parallelism == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s-strategy portfolio at parallelism %d: report or release differs from parallelism 1", name, parallelism)
			}
		}
	}
}

// TestReleaseSurvivesNextPublication: the engine reuses its buffers from
// one publication to the next, so a release must own its records — its
// content hash cannot move when the same middleware publishes again, cold
// or through a cache, with or without pseudonyms. A cache-less release is
// pseudonymised in place, and that must never reach the caller's input.
func TestReleaseSurvivesNextPublication(t *testing.T) {
	ds := fixture(t)
	inputs := []*trace.Dataset{ds, grown(ds), ds, shifted(ds, 1)}
	inputHashes := make([][trace.HashSize]byte, len(inputs))
	for i, in := range inputs {
		inputHashes[i] = in.ContentHash()
	}
	policy := mustPolicy(t)(NewShardByUser(3))
	for _, c := range []struct {
		cache evalcache.Cache
		key   []byte
	}{{nil, nil}, {evalcache.NewLRU(0), nil}, {nil, []byte("k")}, {evalcache.NewLRU(0), []byte("k")}} {
		cache := c.cache
		m, err := New(Config{Parallelism: 2, Cache: cache, PseudonymKey: c.key}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		var kept []*trace.Dataset
		var hashes [][trace.HashSize]byte
		for _, in := range inputs {
			rel, _, err := m.PublishContext(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			srel, _, err := m.PublishShardedContext(context.Background(), in, policy)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*trace.Dataset{rel, srel} {
				kept = append(kept, r)
				hashes = append(hashes, r.ContentHash())
			}
			for i, r := range kept {
				if r.ContentHash() != hashes[i] {
					t.Fatalf("cache %v, key %q: release %d changed after a later publication", cache != nil, c.key, i)
				}
			}
		}
		for i, in := range inputs {
			if in.ContentHash() != inputHashes[i] {
				t.Fatalf("cache %v, key %q: publishing changed input %d", cache != nil, c.key, i)
			}
		}
	}
}
