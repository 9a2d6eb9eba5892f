package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// pubEnv is a publication workload ready for its first timed operation.
type pubEnv struct {
	data *pubData
	pub  *publisher
	// warmed are the warm workload's two set-up publications of the base
	// dataset: the first fills the cache, the second is served from it.
	warmed []published
}

func (w *workload) pubConfig(tr *tracer) pubConfig {
	return pubConfig{policy: w.policy, cache: w.cache, tracer: tr}
}

// input is operation i's dataset: the base on the cold workload, the i-th
// variant on the warm one.
func (w *workload) input(d *pubData, i int) dataset {
	if w.cache {
		return d.variant(i)
	}
	return d.base
}

// setupPublication is everything before the first timed publication:
// generate the dataset, build the middleware, publish the base twice when a
// cache is to be warm (once to fill it, once from it), and run the warm-up
// publications (on variants the timed operations never use).
func setupPublication(ctx context.Context, w *workload, o runOpts, tr *tracer) (*pubEnv, error) {
	d, err := o.dataset()
	if err != nil {
		return nil, err
	}
	pub, err := newPublisher(d.center, w.pubConfig(tr))
	if err != nil {
		return nil, err
	}
	env := &pubEnv{data: d, pub: pub}
	for k := 0; w.cache && k < 2; k++ {
		out, err := pub.publish(ctx, d.base)
		if err != nil {
			return nil, fmt.Errorf("warm publication: %w", err)
		}
		env.warmed = append(env.warmed, out)
	}
	n := w.ops(o)
	for k := 0; k < warmups; k++ {
		if _, err := pub.publish(ctx, w.input(d, n+k)); err != nil {
			return nil, fmt.Errorf("warm-up publication: %w", err)
		}
	}
	return env, nil
}

// pubPass is one timed loop of publications and what it produced.
type pubPass struct {
	samples  []sample
	outcomes map[int]pubOutcome // operation -> outcome, for the sampled operations
	released int
	started  time.Time
}

// sampled are the operations whose outcomes the warm workload keeps for the
// byte-identity check against a cache-less publication.
func sampled(n int) []int { return []int{0, n / 2, n - 1} }

// publishLoop runs n publications one after another. Every outcome is
// checked as it arrives: the exposure floor on both workloads, and on the
// cold one — where every operation publishes the same dataset — identity
// with the first operation's release and report. The warm workload keeps
// the outcomes of its sampled operations for verifyPublication.
func publishLoop(ctx context.Context, w *workload, env *pubEnv, n int, r *report) pubPass {
	pass := pubPass{outcomes: make(map[int]pubOutcome)}
	keep := make(map[int]bool)
	for _, i := range sampled(n) {
		keep[i] = true
	}
	var in dataset
	var out published
	pass.started = time.Now()
	pass.samples = runLoop(ctx, wallClock{}, n, 1, 0, opHooks{
		prepare: func(_, i int) { in = w.input(env.data, i) },
		run: func(ctx context.Context, _, _ int) (err error) {
			out, err = env.pub.publish(ctx, in)
			return err
		},
		check: func(_, i int) error {
			sum := out.summary()
			pass.released += sum.released
			if !sum.floorOK {
				r.violate("operation %d: a released shard has no strategy within the exposure floor", i)
			}
			if w.cache && !keep[i] {
				return nil // hashing a release costs a third of a warm publication
			}
			got, err := out.outcome()
			if err != nil {
				return err
			}
			if keep[i] {
				pass.outcomes[i] = got
			}
			if !w.cache && !got.equal(pass.outcomes[0]) {
				r.violate("operation %d: release or report differs from operation 0's", i)
			}
			return nil
		},
	})
	return pass
}

// runPublication runs one publication workload: untraced for the
// end-to-end metrics, or an untraced and a traced pass plus the layer
// ladder for the per-layer ones.
func runPublication(ctx context.Context, w *workload, o runOpts) (*report, error) {
	r := newReport()
	n := w.ops(o)

	var env *pubEnv
	setups, err := timeSetups(o, func() (err error) {
		env, err = setupPublication(ctx, w, o, nil)
		return err
	}, func() error { return nil })
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "%s: %d trajectories, %d records, %d operations\n",
		w.name, env.data.trajectories(), env.data.records(), n)

	if !o.traced {
		// What a restart reads — the dataset on disk — does not depend on the
		// publications, so it is measured before them, beside a small heap:
		// after the warm loop's 600 MB the same reads took 84 or 105 ms
		// depending on how much memory the runtime had handed back.
		if err := restartPublication(w, env.data, o, r); err != nil {
			return nil, err
		}
	}

	var m0, m1 runtime.MemStats
	c0 := env.pub.cacheStats()
	runtime.ReadMemStats(&m0)
	pass := publishLoop(ctx, w, env, n, r)
	runtime.ReadMemStats(&m1)
	c1 := env.pub.cacheStats()
	r.latencyFigures(w, pass.samples)
	if r.failed > 0 {
		return r, nil
	}

	if err := verifyPublication(ctx, w, env, pass, r); err != nil {
		return nil, err
	}
	if !o.traced {
		r.metrics["items_per_s"] = float64(pass.released) / timedSection(pass.samples, false).Seconds()
		r.metrics["alloc_mb_per_op"] = allocMB(&m0, &m1) / float64(n)
		r.metrics["setup_s"] = medianDuration(setups).Seconds()
		return r, nil
	}

	if w.cache {
		hits, misses := c1.hits-c0.hits, c1.misses-c0.misses
		if hits+misses > 0 {
			r.metrics["evalcache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		r.metrics["evalcache.evictions"] = float64(c1.evictions - c0.evictions)
		r.metrics["evalcache.bytes_mb"] = float64(c1.bytes) / (1 << 20)
		r.metrics["evalcache.pruned"] = float64(c1.pruned - c0.pruned)
	}

	// The traced pass: the same operations on a fresh middleware that
	// carries the program's tracer.
	tr := newTracer(n + warmups + 8)
	tenv, err := setupPublication(ctx, w, o, tr)
	if err != nil {
		return nil, err
	}
	traced := newReport()
	tpass := publishLoop(ctx, w, tenv, n, traced)
	traced.latencyFigures(w, tpass.samples)
	if _, ok := r.absorbTraced(traced); !ok {
		return r, nil
	}
	for _, i := range sampled(n) {
		if !tpass.outcomes[i].equal(pass.outcomes[i]) {
			r.violate("operation %d: traced and untraced publications differ", i)
		}
	}

	totals := foldSpans(since(harvest(tr), tpass.started))
	for _, name := range pubSpans {
		r.spanSelf(name+".self_ms", totals, name, n)
	}
	r.metrics["core.strategy.count"] = float64(totals["core.strategy"].count) / float64(n)
	r.metrics["core.attack.count"] = float64(totals["core.attack"].count) / float64(n)
	sel := totals["core.select"].attrs
	if hit, miss := sel["cache_hit=true"], sel["cache_hit=false"]; hit+miss > 0 {
		r.metrics["core.select.cache_hit_ratio"] = float64(hit) / float64(hit+miss)
	}
	var wall time.Duration
	for _, s := range tpass.samples {
		wall += s.latency()
	}
	r.metrics["otrace.attributed_share"] = float64(totals[spanPublish].total()) / float64(wall)

	rungs, err := pubLadder(ctx, env.data)
	if err != nil {
		return nil, err
	}
	return r, r.ladderFigures(rungs, 5)
}

// verifyPublication is the part of the correctness gate that needs extra,
// cache-less publications. Cold workload: the release and report must not
// depend on Parallelism. Warm workload: for unchanged input a cached result
// is byte-identical to a cold one, so both set-up publications of the base
// — the one that filled the cache and the one served from it — must equal a
// cache-less publication of the base.
//
// For changed input no such identity holds: with a cache the engine prunes
// strategies a prior run on the shard disqualified, and a pruned strategy
// can be the one a cache-less run would have chosen. How many of the sampled
// variants released something else than a cache-less publication of the same
// variant is reported as a note, not gated.
func verifyPublication(ctx context.Context, w *workload, env *pubEnv, pass pubPass, r *report) error {
	cfg := w.pubConfig(nil)
	cfg.cache = false
	if !w.cache {
		cfg.parallelism = 1
	}
	ref, err := newPublisher(env.data.center, cfg)
	if err != nil {
		return err
	}
	reference := func(ds dataset) (pubOutcome, error) {
		out, err := ref.publish(ctx, ds)
		if err != nil {
			return pubOutcome{}, fmt.Errorf("reference publication: %w", err)
		}
		return out.outcome()
	}
	want, err := reference(env.data.base)
	if err != nil {
		return err
	}
	if !w.cache {
		if !want.equal(pass.outcomes[0]) {
			r.violate("release or report differs between Parallelism 1 and %d", runtime.GOMAXPROCS(0))
		}
		return nil
	}
	for k, warmed := range env.warmed {
		got, err := warmed.outcome()
		if err != nil {
			return err
		}
		if !want.equal(got) {
			r.violate("set-up publication %d of the unchanged base differs from a cache-less publication", k)
		}
	}
	differ := 0
	for i, got := range pass.outcomes {
		want, err := reference(w.input(env.data, i))
		if err != nil {
			return err
		}
		if !want.sameRelease(got) {
			differ++
		}
	}
	r.notes["warm_releases_unlike_cold"] = float64(differ)
	r.notes["warm_releases_compared"] = float64(len(pass.outcomes))
	return nil
}

// restartPublication measures the publication side's restart_ms: a fresh
// process's path from the dataset on disk to a middleware ready to publish.
func restartPublication(w *workload, data *pubData, o runOpts, r *report) error {
	path := filepath.Join(o.scratch, "traces.csv")
	if err := data.saveCSV(path); err != nil {
		return err
	}
	var took []time.Duration
	for k := 0; k < restarts; k++ {
		t0 := time.Now()
		got, err := reloadPublisher(path, data.center, w.pubConfig(nil))
		if err != nil {
			return err
		}
		took = append(took, time.Since(t0))
		if got != data.records() {
			r.violate("restart %d: read %d records back from disk, wrote %d", k, got, data.records())
		}
	}
	r.metrics["restart_ms"] = ms(medianDuration(took))
	return nil
}
