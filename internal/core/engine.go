package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/metrics"
	"apisense/internal/otrace"
	"apisense/internal/par"
	"apisense/internal/trace"
)

// evalContext is the per-run shared state of the evaluation engine: the
// middleware's global knowledge, computed once per Publish/Evaluate run and
// then read concurrently by every strategy worker. All fields are immutable
// after newEvalContext returns. The attacker extractor and recovery attack
// live on the Middleware itself (they depend only on configuration, see
// New), so a run only derives the dataset-dependent state here.
type evalContext struct {
	raw   *trace.Dataset
	truth map[string][]geo.Point
	// view is the raw half of every utility score (see metrics.RawView);
	// each strategy scores its protected dataset against it in one pass.
	view *metrics.RawView
}

// newEvalContext derives the shared analysis state from the raw dataset
// and its trajectory hashes (nil without a cache).
func (m *Middleware) newEvalContext(ctx context.Context, raw *trace.Dataset, hashes [][trace.HashSize]byte) (*evalContext, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	truth, err := m.referencePOIs(raw, hashes)
	if err != nil {
		return nil, err
	}
	box, ok := raw.BBox()
	if !ok {
		return nil, fmt.Errorf("core: raw dataset is empty")
	}
	grid, err := geo.NewGrid(box.Pad(500), m.cfg.CellSize)
	if err != nil {
		return nil, fmt.Errorf("core: analysis grid: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &evalContext{
		raw:   raw,
		truth: truth,
		view:  metrics.NewRawView(raw, grid, m.cfg.TopK, lastDay(raw)),
	}, nil
}

// lastDay is the train/test cut of the traffic-utility score: the UTC
// midnight that opens the dataset's last day, which is held out. On a
// single-day dataset nothing starts before it and traffic utility is 0.
func lastDay(raw *trace.Dataset) time.Time {
	_, end, _ := raw.TimeSpan()
	endEve := end.Add(-time.Nanosecond) // an end exactly at midnight belongs to the previous day
	return time.Date(endEve.Year(), endEve.Month(), endEve.Day(), 0, 0, 0, 0, time.UTC)
}

// winner tracks the best floor-meeting outcome seen so far, retaining only
// that outcome's protected dataset: Publish releases the winner without
// running its mechanism a second time, while the losers' datasets are
// dropped as soon as a better candidate arrives, bounding peak memory at
// one retained copy plus the in-flight copy each strategy worker holds
// while evaluating. The replacement rule —
// strictly higher utility, or equal utility at a lower portfolio index —
// selects the same strategy as an in-order scan regardless of the order in
// which concurrent workers deliver outcomes.
type winner struct {
	mu   sync.Mutex
	idx  int // portfolio index, -1 when no strategy meets the floor
	util float64
	prot *trace.Dataset
}

func (w *winner) offer(i int, ev Evaluation, prot *trace.Dataset) {
	if !ev.MeetsFloor {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.idx < 0 || ev.Utility > w.util || (ev.Utility == w.util && i < w.idx) {
		w.idx, w.util, w.prot = i, ev.Utility, prot
	}
}

// evaluateStrategy scores one strategy against the shared context,
// protecting the dataset on up to parallelism trajectory workers.
func (m *Middleware) evaluateStrategy(ctx context.Context, ec *evalContext, s lppm.Mechanism, parallelism int) (ev Evaluation, prot *trace.Dataset, err error) {
	t0 := m.cfg.Metrics.start()
	defer m.cfg.Metrics.observeStrategy(t0)
	ctx, sp := m.cfg.Tracer.Start(ctx, "core.strategy", otrace.String("strategy", s.Name()))
	defer func() { endSpan(sp, err) }()
	prot, err = lppm.ProtectDatasetContext(ctx, s, ec.raw, parallelism)
	if err != nil {
		return Evaluation{}, nil, fmt.Errorf("core: strategy %s: %w", s.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return Evaluation{}, nil, err
	}
	score := ec.view.Score(prot)
	// The attack's own span makes the attacker-extraction cache's savings
	// visible on the timeline.
	_, asp := m.cfg.Tracer.Start(ctx, "core.attack")
	privacy := m.recovery.Run(ec.truth, prot)
	asp.End()
	ev = Evaluation{
		Strategy:       s.Name(),
		Privacy:        privacy,
		MeetsFloor:     privacy.F1() <= m.cfg.MaxPOIExposure,
		HotspotOverlap: score.HotspotOverlap,
		TrafficUtility: score.TrafficUtility,
		Distortion:     score.Distortion,
		Coverage:       score.Coverage,
		Released:       prot.Len(),
	}
	switch m.cfg.Objective {
	case ObjectiveTraffic:
		ev.Utility = ev.TrafficUtility
	case ObjectiveDistortion:
		ev.Utility = 1 / (1 + ev.Distortion.Mean/250)
	default:
		ev.Utility = ev.HotspotOverlap
	}
	return ev, prot, nil
}

// evaluateAll fans the portfolio out over the worker pool and fans the
// scorecards back in, preserving portfolio order. The budget (a worker
// count; sharded publication hands each shard a slice of the global
// Config.Parallelism) is split between strategy workers and per-strategy
// trajectory workers: with P workers and S strategies, min(P, S) strategies
// run concurrently and each protects trajectories on P/min(P,S) workers
// (budget 1 stays fully sequential; a single-strategy portfolio gives the
// whole budget to trajectory workers).
//
// When track is non-nil every outcome is offered to it, retaining the best
// floor-meeting protected dataset for Publish; a nil track (Evaluate)
// keeps no protected data at all.
func (m *Middleware) evaluateAll(ctx context.Context, raw *trace.Dataset, hashes [][trace.HashSize]byte, track *winner, budget int) ([]Evaluation, error) {
	ec, err := m.newEvalContext(ctx, raw, hashes)
	if err != nil {
		return nil, err
	}
	if budget < 1 {
		budget = 1
	}
	n := len(m.strategies)
	workers := budget
	if workers > n {
		workers = n
	}
	inner := budget / workers // workers >= 1: New requires a non-empty portfolio
	evals := make([]Evaluation, n)
	err = par.For(ctx, n, workers, func(ctx context.Context, i int) error {
		ev, prot, err := m.evaluateStrategy(ctx, ec, m.strategies[i], inner)
		if err != nil {
			return err
		}
		if track != nil {
			track.offer(i, ev, prot)
		}
		evals[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return evals, nil
}

// EvaluateContext scores every candidate strategy against the raw dataset
// on the concurrent evaluation engine. The report is byte-identical for any
// Config.Parallelism; evaluations appear in portfolio order. The run is
// abandoned promptly when ctx is cancelled.
func (m *Middleware) EvaluateContext(ctx context.Context, raw *trace.Dataset) (evals []Evaluation, err error) {
	t0 := m.cfg.Metrics.start()
	defer m.cfg.Metrics.observeEvaluate(t0)
	ctx, sp := m.cfg.Tracer.Start(ctx, "core.evaluate")
	defer func() { endSpan(sp, err) }()
	// No selection caching: Evaluate is a pure scorecard. It still benefits
	// from the reference-POI and attacker-extraction memoization.
	return m.evaluateAll(ctx, raw, m.hashContent(raw).trajectories, nil, m.cfg.Parallelism)
}

// Evaluate scores every candidate strategy against the raw dataset. It is
// EvaluateContext with a background context.
func (m *Middleware) Evaluate(raw *trace.Dataset) ([]Evaluation, error) {
	//lint:allow ctxflow convenience wrapper, EvaluateContext is the cancellable form
	return m.EvaluateContext(context.Background(), raw)
}

// selectStrategies is the cached selection step shared by PublishContext
// and publishShard: evaluate the portfolio with winner tracking, or serve
// the whole result (scorecard, winner index, pre-pseudonymisation protected
// dataset) from the evaluation cache when the dataset content and the
// configuration fingerprint match a prior run. A hit is the scorecard a
// cache-less run reports; a miss scores every strategy in full, so warm
// and cold results are byte-identical on any input. raw's trajectories are hashed once here; every cache key of the run is
// derived from those hashes. With a cache the result is shared with it and
// must reach the caller only through handOut and scorecard.
func (m *Middleware) selectStrategies(ctx context.Context, raw *trace.Dataset, budget int) (_ *cachedSelection, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := m.cfg.Tracer.Start(ctx, "core.select")
	defer func() { endSpan(sp, err) }()
	hs := m.hashContent(raw)
	if cs, ok := m.loadSelection(hs.dataset); ok {
		sp.SetAttr(otrace.Bool("cache_hit", true))
		return cs, nil
	}
	if m.cache != nil {
		sp.SetAttr(otrace.Bool("cache_hit", false))
	}
	track := &winner{idx: -1}
	evals, err := m.evaluateAll(ctx, raw, hs.trajectories, track, budget)
	if err != nil {
		return nil, err
	}
	cs := &cachedSelection{evals: evals, winIdx: track.idx, prot: track.prot}
	m.storeSelection(hs.dataset, cs)
	return cs, nil
}

// handOut returns the release a publication gives its caller. With a
// cache the protected data is shared with cached selections, so the caller
// gets the one copy of it: the pseudonymizer makes that copy, and without
// a pseudonym key the release is cloned. Cache-less releases are the run's
// own and leave uncopied.
func (m *Middleware) handOut(release *trace.Dataset) (*trace.Dataset, error) {
	if len(m.cfg.PseudonymKey) > 0 {
		p, err := trace.NewPseudonymizer(m.cfg.PseudonymKey)
		if err != nil {
			return nil, fmt.Errorf("core: pseudonymizer: %w", err)
		}
		return p.Apply(release), nil
	}
	if m.cache != nil {
		return release.Clone(), nil
	}
	return release, nil
}

// scorecard returns evals for a caller's report: a copy with a cache,
// since cached scorecards are shared.
func (m *Middleware) scorecard(evals []Evaluation) []Evaluation {
	if m.cache == nil {
		return evals
	}
	return append([]Evaluation(nil), evals...)
}

// PublishContext evaluates the portfolio, selects the best strategy meeting
// the privacy floor, and returns the protected (and, when a pseudonym key
// is configured, pseudonymised) dataset together with the full selection
// report. The winner's dataset is the one produced during evaluation — the
// mechanism is not run a second time. When no strategy meets the floor, it
// returns ErrNoStrategy and a selection whose Chosen field is empty. The
// run is abandoned promptly when ctx is cancelled.
func (m *Middleware) PublishContext(ctx context.Context, raw *trace.Dataset) (_ *trace.Dataset, _ *Selection, err error) {
	t0 := m.cfg.Metrics.start()
	defer m.cfg.Metrics.observePublish(t0)
	ctx, sp := m.cfg.Tracer.Start(ctx, "core.publish")
	defer func() { endSpan(sp, err) }()
	cs, err := m.selectStrategies(ctx, raw, m.cfg.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	sel := &Selection{
		Objective:   m.cfg.Objective,
		Floor:       m.cfg.MaxPOIExposure,
		Evaluations: m.scorecard(cs.evals),
	}
	if cs.winIdx < 0 {
		return nil, sel, ErrNoStrategy
	}
	sel.Chosen = cs.evals[cs.winIdx].Strategy
	release, err := m.handOut(cs.prot)
	if err != nil {
		return nil, sel, err
	}
	return release, sel, nil
}

// Publish is PublishContext with a background context.
func (m *Middleware) Publish(raw *trace.Dataset) (*trace.Dataset, *Selection, error) {
	//lint:allow ctxflow convenience wrapper, PublishContext is the cancellable form
	return m.PublishContext(context.Background(), raw)
}
