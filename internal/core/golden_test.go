package core

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"apisense/internal/evalcache"
	"apisense/internal/mobgen"
)

// updateGolden rewrites testdata/selection_seed1.golden.json from the
// current tree. The checked-in file was written by the commit before the
// scoring kernel replaced the per-metric scorers, and rewritten twice since:
// when the distortion mean became the exact sum (only Distortion.Mean
// moved, in its last digits), and when the distortion summary shrank to
// its mean and count (the Median, P95 and Max keys of every evaluation went,
// and no other byte moved). Regenerate it only with a change that means to
// alter reports.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/core/testdata golden files")

// goldenPublication is the pinned outcome of one sharded publication: the
// full report and the content hash of the (pseudonymised) release.
type goldenPublication struct {
	Selection   *ShardedSelection `json:"selection"`
	ReleaseHash string            `json:"release_hash"`
}

// TestSelectionMatchesParentGolden pins one sharded publication (mobgen
// seed 1, 8 users x 4 days, 36 h windows) to the bytes the per-metric
// scorers produced, exact distortion means and the dropped distortion
// quantiles aside: every Evaluation field
// of every shard and the release content hash, at parallelism 1/3/8,
// computed cold, computed into a cache and served warm from it.
func TestSelectionMatchesParentGolden(t *testing.T) {
	ds, city, err := mobgen.Generate(mobgen.Config{Seed: 1, Users: 8, Days: 4})
	if err != nil {
		t.Fatal(err)
	}
	by, err := ShardPolicyFromSpec("window:dur=36h")
	if err != nil {
		t.Fatal(err)
	}
	publish := func(parallelism int, cache evalcache.Cache) []byte {
		t.Helper()
		m, err := New(Config{Parallelism: parallelism, PseudonymKey: []byte("golden"), Cache: cache}, city.Center)
		if err != nil {
			t.Fatal(err)
		}
		rel, sel, err := m.PublishShardedContext(context.Background(), ds, by)
		if err != nil {
			t.Fatal(err)
		}
		h := rel.ContentHash()
		out, err := json.MarshalIndent(goldenPublication{Selection: sel, ReleaseHash: hex.EncodeToString(h[:])}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n')
	}

	path := filepath.Join("testdata", "selection_seed1.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, publish(1, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 3, 8} {
		if got := publish(parallelism, nil); string(got) != string(want) {
			t.Errorf("parallelism %d, no cache: publication differs from golden:\n%s", parallelism, got)
		}
		cache := evalcache.NewLRU(0)
		if got := publish(parallelism, cache); string(got) != string(want) {
			t.Errorf("parallelism %d, cold cache: publication differs from golden:\n%s", parallelism, got)
		}
		if got := publish(parallelism, cache); string(got) != string(want) {
			t.Errorf("parallelism %d, warm cache: publication differs from golden:\n%s", parallelism, got)
		}
	}
}
