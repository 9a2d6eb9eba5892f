package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"apisense/internal/lppm"
	"apisense/internal/trace"
)

func mustPolicy(t *testing.T) func(ShardBy, error) ShardBy {
	t.Helper()
	return func(p ShardBy, err error) ShardBy {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

func testPolicies(t *testing.T) map[string]ShardBy {
	t.Helper()
	must := mustPolicy(t)
	return map[string]ShardBy{
		"window": must(NewShardByWindow(48 * time.Hour)),
		"cell":   must(NewShardByCell(3000)),
		"user":   must(NewShardByUser(4)),
	}
}

func TestShardPolicyValidation(t *testing.T) {
	if _, err := NewShardByCell(0); err == nil {
		t.Error("zero cell size should fail")
	}
	if _, err := NewShardByWindow(-time.Hour); err == nil {
		t.Error("negative window should fail")
	}
	if _, err := NewShardByUser(0); err == nil {
		t.Error("zero buckets should fail")
	}
}

func TestShardPolicyFromSpec(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"cell", "cell(size=2000m)"},
		{"cell:size=500", "cell(size=500m)"},
		{"window", "window(24h0m0s)"},
		{"window:dur=6h", "window(6h0m0s)"},
		{"user", "user(buckets=8)"},
		{"user:buckets=3", "user(buckets=3)"},
	}
	for _, c := range cases {
		p, err := ShardPolicyFromSpec(c.spec)
		if err != nil {
			t.Fatalf("spec %q: %v", c.spec, err)
		}
		if p.Name() != c.name {
			t.Errorf("spec %q -> %q, want %q", c.spec, p.Name(), c.name)
		}
	}
	for _, bad := range []string{"hexagon", "cell:size=x", "window:dur=soon", "user:buckets=-1", "cell:size"} {
		if _, err := ShardPolicyFromSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// TestPartitionCoversDataset: every trajectory lands in exactly one shard,
// keys are sorted, and data is shared, not copied.
func TestPartitionCoversDataset(t *testing.T) {
	ds := fixture(t)
	for name, policy := range testPolicies(t) {
		shards, err := Partition(ds, policy)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(shards) < 2 {
			t.Errorf("%s: only %d shards; fixture should split", name, len(shards))
		}
		total := 0
		for i, sh := range shards {
			total += sh.Data.Len()
			if i > 0 && shards[i-1].Key >= sh.Key {
				t.Errorf("%s: keys not strictly ascending: %q >= %q", name, shards[i-1].Key, sh.Key)
			}
		}
		if total != ds.Len() {
			t.Errorf("%s: %d trajectories across shards, want %d", name, total, ds.Len())
		}
	}
}

// TestPartitionUserKeepsUsersTogether: the user policy never splits one
// user's history across shards.
func TestPartitionUserKeepsUsersTogether(t *testing.T) {
	ds := fixture(t)
	shards, err := Partition(ds, mustPolicy(t)(NewShardByUser(3)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, sh := range shards {
		for _, tr := range sh.Data.Trajectories {
			if prev, ok := seen[tr.User]; ok && prev != sh.Key {
				t.Fatalf("user %s split across shards %s and %s", tr.User, prev, sh.Key)
			}
			seen[tr.User] = sh.Key
		}
	}
}

// TestPartitionDropsEmptyTrajectories: trajectories without records are
// dropped by record-keyed policies instead of crashing them.
func TestPartitionDropsEmptyTrajectories(t *testing.T) {
	ds := fixture(t).Clone()
	ds.Add(&trace.Trajectory{User: "ghost"})
	for _, name := range []string{"window", "cell"} {
		shards, err := Partition(ds, testPolicies(t)[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := 0
		for _, sh := range shards {
			total += sh.Data.Len()
		}
		if total != ds.Len()-1 {
			t.Errorf("%s: %d trajectories sharded, want %d (ghost dropped)", name, total, ds.Len()-1)
		}
	}
}

// TestPublishShardedDeterminism: the report and the release must be
// byte-identical for any Parallelism and for every policy — the sharded
// mirror of the PR 2 engine determinism guarantee.
func TestPublishShardedDeterminism(t *testing.T) {
	ds := fixture(t)
	for name, policy := range testPolicies(t) {
		var refSel *ShardedSelection
		var refRelease *trace.Dataset
		var refJSON []byte
		for _, parallelism := range []int{1, 3, 8} {
			m, err := New(Config{Parallelism: parallelism, PseudonymKey: []byte("shard-det")}, lyon)
			if err != nil {
				t.Fatal(err)
			}
			release, sel, err := m.PublishShardedContext(context.Background(), ds, policy)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", name, parallelism, err)
			}
			selJSON, err := json.Marshal(sel)
			if err != nil {
				t.Fatal(err)
			}
			if refSel == nil {
				refSel, refRelease, refJSON = sel, release, selJSON
				continue
			}
			if !reflect.DeepEqual(refSel, sel) {
				t.Errorf("%s: report differs between parallelism 1 and %d", name, parallelism)
			}
			if string(refJSON) != string(selJSON) {
				t.Errorf("%s: serialized report not byte-identical at parallelism %d", name, parallelism)
			}
			if !reflect.DeepEqual(refRelease, release) {
				t.Errorf("%s: released dataset differs at parallelism %d", name, parallelism)
			}
		}
	}
}

// TestPublishShardedSingleShardMatchesMonolithic: with every trajectory in
// one shard the sharded pipeline must reproduce the monolithic publication
// exactly (same winner, same evaluations, same released bytes).
func TestPublishShardedSingleShardMatchesMonolithic(t *testing.T) {
	ds := fixture(t)
	cfg := Config{Parallelism: 4, PseudonymKey: []byte("mono")}
	m, err := New(cfg, lyon)
	if err != nil {
		t.Fatal(err)
	}
	monoRelease, monoSel, err := m.PublishContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	oneShard := mustPolicy(t)(NewShardByUser(1))
	shRelease, shSel, err := m.PublishShardedContext(context.Background(), ds, oneShard)
	if err != nil {
		t.Fatal(err)
	}
	if len(shSel.Shards) != 1 {
		t.Fatalf("%d shards, want 1", len(shSel.Shards))
	}
	if shSel.Shards[0].Chosen != monoSel.Chosen {
		t.Errorf("single shard chose %s, monolithic chose %s", shSel.Shards[0].Chosen, monoSel.Chosen)
	}
	if !reflect.DeepEqual(shSel.Shards[0].Evaluations, monoSel.Evaluations) {
		t.Error("single-shard evaluations differ from monolithic")
	}
	if !reflect.DeepEqual(shRelease, monoRelease) {
		t.Error("single-shard release differs from monolithic release")
	}
	if shSel.WorstShard != shSel.Shards[0].Key {
		t.Errorf("worst shard %q, want %q", shSel.WorstShard, shSel.Shards[0].Key)
	}
}

// TestPublishShardedAggregates: worst-shard privacy and size-weighted
// utility must follow from the per-shard outcomes, and the privacy floor
// must hold in every released shard.
func TestPublishShardedAggregates(t *testing.T) {
	ds := fixture(t)
	m, err := New(Config{Parallelism: 4}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	policy := mustPolicy(t)(NewShardByWindow(48 * time.Hour))
	release, sel, err := m.PublishShardedContext(context.Background(), ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Policy != policy.Name() {
		t.Errorf("policy = %q, want %q", sel.Policy, policy.Name())
	}
	var worst float64
	var worstKey string
	var wUtil, wSum float64
	released := 0
	for _, sh := range sel.Shards {
		if sh.Chosen == "" {
			continue
		}
		if sh.Exposure > sel.Floor {
			t.Errorf("shard %s released with exposure %.3f above floor %.3f", sh.Key, sh.Exposure, sel.Floor)
		}
		if sh.Exposure > worst || worstKey == "" {
			worst, worstKey = sh.Exposure, sh.Key
		}
		wUtil += float64(sh.Records) * sh.Utility
		wSum += float64(sh.Records)
		released += sh.Released
	}
	if sel.WorstExposure != worst || sel.WorstShard != worstKey {
		t.Errorf("worst = (%.3f, %s), want (%.3f, %s)", sel.WorstExposure, sel.WorstShard, worst, worstKey)
	}
	if wSum > 0 {
		if want := wUtil / wSum; sel.Utility != want {
			t.Errorf("utility = %v, want record-weighted %v", sel.Utility, want)
		}
	}
	if sel.Released != released || release.Len() != released {
		t.Errorf("released = %d (report) / %d (dataset), want %d", sel.Released, release.Len(), released)
	}
}

// TestPublishShardedWithholdsFailingShards: when no strategy meets the
// floor anywhere, every shard is withheld and the error is ErrNoStrategy.
func TestPublishShardedWithholdsFailingShards(t *testing.T) {
	ds := fixture(t)
	m, err := New(Config{
		Strategies:     []lppm.Mechanism{lppm.Identity{}},
		MaxPOIExposure: 0.1,
		Parallelism:    4,
	}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	release, sel, err := m.PublishShardedContext(context.Background(), ds, mustPolicy(t)(NewShardByUser(3)))
	if !errors.Is(err, ErrNoStrategy) {
		t.Fatalf("err = %v, want ErrNoStrategy", err)
	}
	if release != nil {
		t.Error("withheld publication returned a dataset")
	}
	if sel == nil || sel.Released != 0 {
		t.Fatal("report should be returned with Released == 0")
	}
	if sel.Withheld != ds.Len() {
		t.Errorf("withheld %d trajectories, want %d", sel.Withheld, ds.Len())
	}
	for _, sh := range sel.Shards {
		if sh.Chosen != "" {
			t.Errorf("shard %s chose %q, want none", sh.Key, sh.Chosen)
		}
	}
}

// TestPublishShardedPseudonymisesOnce: pseudonyms must be consistent across
// shards — one user keeps one pseudonym in the merged release.
func TestPublishShardedPseudonymisesOnce(t *testing.T) {
	ds := fixture(t)
	m, err := New(Config{Parallelism: 2, PseudonymKey: []byte("cross-shard")}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	release, _, err := m.PublishShardedContext(context.Background(), ds, mustPolicy(t)(NewShardByWindow(24*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(release.Users()), len(ds.Users()); got > want {
		t.Errorf("release has %d pseudonyms for %d users: inconsistent across shards", got, want)
	}
	for _, tr := range release.Trajectories {
		if strings.HasPrefix(tr.User, "user-") {
			t.Fatalf("release leaks raw user id %q", tr.User)
		}
	}
}

// TestPublishShardedCancellation: a cancelled context aborts the sharded
// run promptly.
func TestPublishShardedCancellation(t *testing.T) {
	ds := fixture(t)
	m, err := New(Config{Parallelism: 4}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.PublishShardedContext(ctx, ds, mustPolicy(t)(NewShardByUser(2))); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestPublishShardedValidation: nil policy and empty dataset are rejected.
func TestPublishShardedValidation(t *testing.T) {
	m, err := New(Config{}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PublishShardedContext(context.Background(), fixture(t), nil); err == nil {
		t.Error("nil policy should fail")
	}
	if _, _, err := m.PublishShardedContext(context.Background(), trace.NewDataset(), mustPolicy(t)(NewShardByCell(1000))); err == nil {
		t.Error("empty dataset should fail")
	}
}
