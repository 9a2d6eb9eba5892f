package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(v, 0, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	// Two failed operations rank beyond every success: of 100 attempts the
	// 98 successes fill ranks 1..98, so p98 is the slowest success and p99
	// has no latency at all.
	if got := percentile(v[:98], 2, 98); got != 98 {
		t.Errorf("p98 with failures = %g, want 98", got)
	}
	if got := percentile(v[:98], 2, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 landing on a failed operation = %g, want +Inf", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{99, 0},     // p90 would leave 9 beyond
		{100, 90},   // rank 90, ten beyond
		{105, 90},   // publish_cold
		{199, 90},   // p95 would leave 9 beyond
		{200, 95},   //
		{999, 95},   // p99 would leave 9 beyond
		{1000, 99},  // rank 990, ten beyond
		{24000, 99}, // the menu stops at p99
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestFoldSpansSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{trace: "a", id: "root", name: "root", start: at(0), end: at(100)},
		// Two overlapping children cover [10,60) together, once.
		{trace: "a", id: "c1", parent: "root", name: "child", start: at(10), end: at(50)},
		{trace: "a", id: "c2", parent: "root", name: "child", start: at(30), end: at(60)},
		// A child that outlives its parent is clipped to it: [90,100).
		{trace: "a", id: "c3", parent: "root", name: "late", start: at(90), end: at(120)},
		// A grandchild reduces its own parent only.
		{trace: "a", id: "g1", parent: "c1", name: "grandchild", start: at(20), end: at(30), attrs: map[string]string{"cache_hit": "true"}},
		// The same span id in another trace is another span.
		{trace: "b", id: "c1", name: "root", start: at(0), end: at(7)},
	}
	got := foldSpans(spans)
	ms := time.Millisecond
	for name, want := range map[string]spanTotals{
		"root":       {count: 2, self: (100-50-10)*ms + 7*ms},
		"child":      {count: 2, self: (40-10)*ms + 30*ms},
		"late":       {count: 1, self: 30 * ms},
		"grandchild": {count: 1, self: 10 * ms},
	} {
		if g := got[name]; g.count != want.count || g.self != want.self {
			t.Errorf("%s: count %d self %v, want count %d self %v", name, g.count, g.self, want.count, want.self)
		}
	}
	if got["root"].total() != 107*ms {
		t.Errorf("root total = %v, want 107ms", got["root"].total())
	}
	if got["grandchild"].attrs["cache_hit=true"] != 1 {
		t.Errorf("attrs = %v", got["grandchild"].attrs)
	}
}

// fakeClock advances only when slept on or told to; it serves one
// connection, so its reads are deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	ms := time.Millisecond
	took := []time.Duration{5 * ms, 25 * ms, 5 * ms, 5 * ms} // operation 1 stalls past two slots
	samples := runLoop(context.Background(), clk, len(took), 1, 10*ms, opHooks{
		run: func(_ context.Context, _, i int) error { clk.sleep(took[i]); return nil },
	})
	wantLatency := []time.Duration{5 * ms, 25 * ms, 20 * ms, 15 * ms}
	wantLate := []time.Duration{0, 0, 15 * ms, 10 * ms}
	for i, s := range samples {
		if s.latency() != wantLatency[i] || s.lateness() != wantLate[i] {
			t.Errorf("operation %d: latency %v lateness %v, want %v and %v", i, s.latency(), s.lateness(), wantLatency[i], wantLate[i])
		}
	}
	if got := timedSection(samples, true); got != 45*ms {
		t.Errorf("open-loop timed section = %v, want 45ms", got)
	}
}

func TestClosedLoopTimesFromSendAndSkipsGeneratorWork(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	ms := time.Millisecond
	samples := runLoop(context.Background(), clk, 3, 1, 0, opHooks{
		prepare: func(_, _ int) { clk.sleep(2 * ms) },
		run:     func(context.Context, int, int) error { clk.sleep(7 * ms); return nil },
		check:   func(_, _ int) error { clk.sleep(3 * ms); return nil },
	})
	for i, s := range samples {
		if s.latency() != 7*ms || s.lateness() != 0 {
			t.Errorf("operation %d: latency %v lateness %v, want 7ms and 0", i, s.latency(), s.lateness())
		}
	}
	if got := timedSection(samples, false); got != 21*ms {
		t.Errorf("closed-loop timed section = %v, want 21ms", got)
	}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{105, 104, 106}, lower, 0.10, verdictOK},
		{"beyond bound", []float64{100, 101, 99}, []float64{115, 114, 116}, lower, 0.10, verdictWorse},
		{"higher is better, dropped", []float64{100, 101, 99}, []float64{85, 86, 84}, higher, 0.10, verdictWorse},
		{"higher is better, rose", []float64{100, 101, 99}, []float64{125, 126, 124}, higher, 0.10, verdictOK},
		{"spread wider than the bound", []float64{100, 130, 90}, []float64{105, 95, 135}, lower, 0.10, verdictUnresolved},
		{"wide spread, yet every run better", []float64{100, 130, 90}, []float64{60, 80, 70}, lower, 0.10, verdictOK},
		{"single runs", []float64{100}, []float64{112}, lower, 0.10, verdictWorse},
	} {
		if got := judge(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(name string, p50, restart float64, failed int) string {
		res := result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metric{
			"op_p50_ms":  {p50, "ms"},
			"restart_ms": {restart, "ms"},
		}}
		layer := result{Correct: true, Attempted: 500, Metrics: map[string]metric{"store.snapshots": {5, "count"}}}
		f := setFile{Seed: 1, Sets: []runSet{{"ingest_paced": {EndToEnd: res, PerLayer: layer}}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 2.0, 400, 0)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, write("same.json", 2.1, 410, 0)); err != nil || worse {
		t.Fatalf("within bounds: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "store.snapshots") || !strings.Contains(out.String(), "equal") {
		t.Errorf("repeating counts not reported:\n%s", out.String())
	}
	if worse, err := compareFiles(io.Discard, base, write("slow.json", 2.0, 600, 0)); err != nil || !worse {
		t.Errorf("restart_ms 1.5x: worse=%v err=%v", worse, err)
	}
	if worse, err := compareFiles(io.Discard, base, write("failing.json", 2.0, 400, 5)); err != nil || !worse {
		t.Errorf("fail_share +0.005: worse=%v err=%v", worse, err)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the manifest allows 128", len(perLayer))
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: the manifest wants a one-line why of at most 200 characters, got %d", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		if b := bounds[d.Name]; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, b)
		}
	}
}

// TestQuickRuns drives every workload end to end, untraced and traced, at
// smoke size: the gate must pass, every metric the manifest promises must
// be there, and every span the per-layer metrics read must still exist.
func TestQuickRuns(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 7, seconds: 1, traced: traced, quick: true, scratch: t.TempDir(), log: io.Discard}
			res, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d violations=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.detail.Violations)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.name, traced, d.Name, m.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, m.Value)
				}
			}
			if len(res.detail.Missing) > 0 {
				t.Errorf("%s: spans no longer emitted for %v", w.name, res.detail.Missing)
			}
		}
	}
}
