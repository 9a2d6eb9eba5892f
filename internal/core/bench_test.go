package core

import (
	"context"
	"testing"

	"apisense/internal/mobgen"
)

// BenchmarkPublishCold is one cold sharded publication as the benchmark's
// publish_cold workload makes it: mobgen 16 users x 6 days (seed 1), 36 h
// time-window shards, the default portfolio, a pseudonym key and no cache.
func BenchmarkPublishCold(b *testing.B) {
	ds, city, err := mobgen.Generate(mobgen.Config{Seed: 1, Users: 16, Days: 6})
	if err != nil {
		b.Fatal(err)
	}
	policy, err := ShardPolicyFromSpec("window:dur=36h")
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(Config{PseudonymKey: []byte("bench")}, city.Center)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := m.PublishShardedContext(context.Background(), ds, policy); err != nil {
			b.Fatal(err)
		}
	}
}
