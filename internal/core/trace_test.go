package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"apisense/internal/otrace"
)

// TestTracingDoesNotAffectDeterminism: attaching a Tracer must not change a
// single byte of the report or the release, at any parallelism. The
// baseline is the untraced parallelism-1 run; every other combination —
// traced or not, parallelism 1, 4 or 8 — must reproduce it exactly.
func TestTracingDoesNotAffectDeterminism(t *testing.T) {
	ds := fixture(t)
	policy := mustPolicy(t)(NewShardByUser(4))
	var refSel *ShardedSelection
	var refRelease []byte
	var refJSON []byte
	for _, parallelism := range []int{1, 4, 8} {
		for _, traced := range []bool{false, true} {
			cfg := Config{Parallelism: parallelism, PseudonymKey: []byte("trace-det")}
			if traced {
				cfg.Tracer = otrace.New(otrace.Config{Store: otrace.NewSpanStore(64)})
			}
			m, err := New(cfg, lyon)
			if err != nil {
				t.Fatal(err)
			}
			release, sel, err := m.PublishShardedContext(context.Background(), ds, policy)
			if err != nil {
				t.Fatalf("parallelism %d traced %v: %v", parallelism, traced, err)
			}
			selJSON, err := json.Marshal(sel)
			if err != nil {
				t.Fatal(err)
			}
			relJSON, err := json.Marshal(release.Trajectories)
			if err != nil {
				t.Fatal(err)
			}
			if refSel == nil {
				refSel, refRelease, refJSON = sel, relJSON, selJSON
				continue
			}
			if string(refJSON) != string(selJSON) {
				t.Errorf("parallelism %d traced %v: report bytes differ from untraced baseline", parallelism, traced)
			}
			if !reflect.DeepEqual(refSel, sel) {
				t.Errorf("parallelism %d traced %v: report structure differs", parallelism, traced)
			}
			if string(refRelease) != string(relJSON) {
				t.Errorf("parallelism %d traced %v: released dataset bytes differ", parallelism, traced)
			}
			if traced && cfg.Tracer.Store().Len() == 0 {
				t.Error("traced run recorded no spans: tracer was not exercised")
			}
		}
	}
}

// children returns node's direct children with the given name.
func children(n *otrace.SpanNode, name string) []*otrace.SpanNode {
	var out []*otrace.SpanNode
	for _, c := range n.Children {
		if c.Span.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// attr returns the value of the named attribute, or "" when absent.
func attr(n *otrace.SpanNode, key string) string {
	for _, a := range n.Span.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestPublishShardedTraceTree: one PublishSharded run produces exactly one
// trace whose assembled tree mirrors the pipeline — partition, one shard
// span per shard (each holding the cached selection with one strategy span
// per portfolio member and the attack nested inside), and the final merge.
func TestPublishShardedTraceTree(t *testing.T) {
	ds := fixture(t)
	store := otrace.NewSpanStore(8)
	tracer := otrace.New(otrace.Config{Store: store})
	m, err := New(Config{Parallelism: 4, PseudonymKey: []byte("tree"), Tracer: tracer}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	policy := mustPolicy(t)(NewShardByUser(3))
	_, sel, err := m.PublishShardedContext(context.Background(), ds, policy)
	if err != nil {
		t.Fatal(err)
	}

	sums := store.Summaries()
	if len(sums) != 1 {
		t.Fatalf("%d traces retained, want exactly 1", len(sums))
	}
	if sums[0].Root != "core.publish_sharded" {
		t.Fatalf("trace root = %q, want core.publish_sharded", sums[0].Root)
	}
	spans, ok := store.Spans(sums[0].TraceID)
	if !ok {
		t.Fatal("trace vanished from store")
	}
	roots := otrace.Assemble(spans)
	if len(roots) != 1 {
		t.Fatalf("%d roots after assembly, want 1", len(roots))
	}
	root := roots[0]
	if got := attr(root, "policy"); got != policy.Name() {
		t.Errorf("policy attr = %q, want %q", got, policy.Name())
	}

	parts := children(root, "core.partition")
	if len(parts) != 1 {
		t.Fatalf("%d core.partition spans, want 1", len(parts))
	}
	shardNodes := children(root, "core.shard")
	if got := attr(parts[0], "shards"); got == "" || len(shardNodes) != len(sel.Shards) {
		t.Fatalf("partition shards attr %q with %d core.shard spans, want %d",
			got, len(shardNodes), len(sel.Shards))
	}
	merges := children(root, "core.merge")
	if len(merges) != 1 {
		t.Fatalf("%d core.merge spans, want 1", len(merges))
	}
	if attr(merges[0], "released") == "" || attr(merges[0], "withheld") == "" {
		t.Error("core.merge span lacks released/withheld attrs")
	}

	keys := map[string]bool{}
	for _, sh := range shardNodes {
		keys[attr(sh, "key")] = true
		sels := children(sh, "core.select")
		if len(sels) != 1 {
			t.Fatalf("shard %q has %d core.select spans, want 1", attr(sh, "key"), len(sels))
		}
		strategies := children(sels[0], "core.strategy")
		if len(strategies) != len(m.Strategies()) {
			t.Errorf("shard %q evaluated %d strategies, want %d",
				attr(sh, "key"), len(strategies), len(m.Strategies()))
		}
		for _, st := range strategies {
			// Every strategy runs exactly one attack.
			if attacks := children(st, "core.attack"); len(attacks) != 1 {
				t.Errorf("strategy %q has %d core.attack spans, want 1",
					attr(st, "strategy"), len(attacks))
			}
		}
	}
	for _, sh := range sel.Shards {
		if !keys[sh.Key] {
			t.Errorf("no core.shard span for shard %q", sh.Key)
		}
	}
}
