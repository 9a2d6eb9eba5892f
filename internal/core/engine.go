package core

import (
	"context"
	"fmt"
	"time"

	"apisense/internal/attack"
	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/metrics"
	"apisense/internal/otrace"
	"apisense/internal/par"
	"apisense/internal/poi"
	"apisense/internal/trace"
)

// evalContext is the per-run shared state of the evaluation engine: the
// middleware's global knowledge, computed once per Publish/Evaluate run and
// then read concurrently by every strategy worker. All fields are immutable
// after newEvalContext returns. The attacker extractor and recovery attack
// live on the Middleware itself (they depend only on configuration, see
// New), so a run only derives the dataset-dependent state here.
type evalContext struct {
	raw *trace.Dataset
	// users is raw user by user, in first-appearance order: the order in
	// which each strategy's pass protects, scores and attacks it.
	users []runUser
	// view is the raw half of every utility score (see metrics.RawView);
	// each strategy feeds its protected trajectories to a Scorer over it.
	view *metrics.RawView
}

// runUser is one user of a run: their raw trajectories in dataset order
// and their reference POIs, which the simulated attack tries to recover
// (none for a user whose raw data shows no stay; the attack skips them).
type runUser struct {
	trajectories []*trace.Trajectory
	truth        []geo.Point
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
		users: runUsers(raw, truth),
		view:  metrics.NewRawView(raw, grid, m.cfg.TopK, lastDay(raw)),
	}, nil
}

// runUsers groups raw's trajectories by user, users in first-appearance
// order, and attaches each user's reference POIs.
func runUsers(raw *trace.Dataset, truth map[string][]geo.Point) []runUser {
	idx := make(map[string]int)
	var users []runUser
	for _, t := range raw.Trajectories {
		i, ok := idx[t.User]
		if !ok {
			i = len(users)
			idx[t.User] = i
			users = append(users, runUser{truth: truth[t.User]})
		}
		users[i].trajectories = append(users[i].trajectories, t)
	}
	return users
}

// lastDay is the train/test cut of the traffic-utility score: the UTC
// midnight that opens the dataset's last day, which is held out. On a
// single-day dataset nothing starts before it and traffic utility is 0.
func lastDay(raw *trace.Dataset) time.Time {
	_, end, _ := raw.TimeSpan()
	endEve := end.Add(-time.Nanosecond) // an end exactly at midnight belongs to the previous day
	return time.Date(endEve.Year(), endEve.Month(), endEve.Day(), 0, 0, 0, 0, time.UTC)
}

// scratch is what one worker of a strategy's pass reuses from one
// strategy to the next (see Middleware.scratch): the protected records of
// the trajectory in flight and the header that views them as a
// trajectory, the utility Scorer, and the stays the attacker extracted,
// user by user. It holds about one trajectory plus the Scorer's tables
// and running sums (no distance is kept), and nothing in it outlives the
// strategy: no release, cache entry or report refers into it.
type scratch struct {
	recs     []trace.Record
	tr       trace.Trajectory
	scorer   *metrics.Scorer
	stays    []poi.POI
	attacked []attackedUser
	released int
}

// attackedUser is one user with reference POIs and the stays extracted
// from their protected trajectories, stays[from:to] of the scratch.
type attackedUser struct {
	truth    []geo.Point
	from, to int
}

func (m *Middleware) getScratch(v *metrics.RawView) *scratch {
	sc, _ := m.scratch.Get().(*scratch)
	if sc == nil {
		return &scratch{scorer: metrics.NewScorer(v)}
	}
	sc.scorer.Reset(v)
	return sc
}

// putScratch empties sc, keeping its room but no reference into the run,
// and returns it to the pool.
func (m *Middleware) putScratch(sc *scratch) {
	sc.scorer.Reset(nil)
	clear(sc.attacked)
	sc.tr = trace.Trajectory{}
	sc.stays, sc.attacked, sc.released = sc.stays[:0], sc.attacked[:0], 0
	m.scratch.Put(sc)
}

// evaluateStrategy scores one strategy against the shared context in one
// pass over the run's users: each trajectory is protected into a worker's
// reused buffer and, while it is there, fed to the utility Scorer and —
// for users with reference POIs — to the attacker's stay-point extractor;
// then the buffer takes the next trajectory. No protected dataset is ever
// built. With parallelism P > 1 the users are split into P contiguous
// ranges scored concurrently, whose partial scores merge in range order
// (users are disjoint, so the merge is exact). The core.attack span then
// merges each user's stays into places and matches them.
func (m *Middleware) evaluateStrategy(ctx context.Context, ec *evalContext, s lppm.Mechanism, parallelism int) (ev Evaluation, err error) {
	ctx, sp := m.cfg.Tracer.Start(ctx, "core.strategy", otrace.String("strategy", s.Name()))
	defer func() { endSpan(sp, err) }()
	users := len(ec.users)
	parts := make([]*scratch, max(1, min(parallelism, users)))
	defer func() {
		for _, p := range parts {
			if p != nil {
				m.putScratch(p)
			}
		}
	}()
	err = par.For(ctx, len(parts), len(parts), func(ctx context.Context, r int) error {
		parts[r] = m.getScratch(ec.view)
		return m.passUsers(ctx, ec, s, r*users/len(parts), (r+1)*users/len(parts), parts[r])
	})
	if err != nil {
		return Evaluation{}, err
	}
	whole := parts[0]
	for _, p := range parts[1:] {
		whole.scorer.Merge(p.scorer)
		whole.released += p.released
	}
	score := whole.scorer.Score()
	_, asp := m.cfg.Tracer.Start(ctx, "core.attack")
	var privacy attack.RecoveryResult
	for _, p := range parts {
		for _, u := range p.attacked {
			privacy = privacy.Add(m.recovery.Match(u.truth, p.stays[u.from:u.to]))
		}
	}
	asp.End()
	ev = Evaluation{
		Strategy:       s.Name(),
		Privacy:        privacy,
		MeetsFloor:     privacy.F1() <= m.cfg.MaxPOIExposure,
		HotspotOverlap: score.HotspotOverlap,
		TrafficUtility: score.TrafficUtility,
		Distortion:     score.Distortion,
		Coverage:       score.Coverage,
		Released:       whole.released,
	}
	switch m.cfg.Objective {
	case ObjectiveTraffic:
		ev.Utility = ev.TrafficUtility
	case ObjectiveDistortion:
		ev.Utility = 1 / (1 + ev.Distortion.Mean/250)
	default:
		ev.Utility = ev.HotspotOverlap
	}
	return ev, nil
}

// passUsers is one worker's share of a strategy's pass: users [lo, hi) of
// the run, user numbers k+1 for the Scorer, into sc. The context is
// checked once per user.
func (m *Middleware) passUsers(ctx context.Context, ec *evalContext, s lppm.Mechanism, lo, hi int, sc *scratch) error {
	for k := lo; k < hi; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := &ec.users[k]
		from := len(sc.stays)
		for _, t := range u.trajectories {
			recs, err := s.Protect(sc.recs[:0], t)
			if err != nil {
				return fmt.Errorf("core: strategy %s: %w", s.Name(), err)
			}
			sc.recs = recs
			if len(recs) == 0 {
				continue // suppressed
			}
			sc.released++
			sc.tr = trace.Trajectory{User: t.User, Records: recs}
			sc.scorer.Add(&sc.tr, int32(k+1))
			if len(u.truth) > 0 {
				sc.stays = append(sc.stays, m.recovery.Extractor.Extract(&sc.tr)...)
			}
		}
		if len(u.truth) > 0 {
			sc.attacked = append(sc.attacked, attackedUser{truth: u.truth, from: from, to: len(sc.stays)})
		}
	}
	return nil
}

// evaluateAll fans the portfolio out over the worker pool and fans the
// scorecards back in, preserving portfolio order. The budget (a worker
// count; sharded publication hands each shard a slice of the global
// Config.Parallelism) is split between strategy workers and per-strategy
// user ranges: with P workers and S strategies, min(P, S) strategies run
// concurrently and each splits its users into P/min(P,S) ranges (budget 1
// stays fully sequential; a single-strategy portfolio gives the whole
// budget to one strategy's ranges). No protected data outlives its
// strategy's pass.
func (m *Middleware) evaluateAll(ctx context.Context, raw *trace.Dataset, hashes [][trace.HashSize]byte, budget int) ([]Evaluation, error) {
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
		ev, err := m.evaluateStrategy(ctx, ec, m.strategies[i], inner)
		if err != nil {
			return err
		}
		evals[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return evals, nil
}

// bestStrategy returns the portfolio index of the first floor-meeting
// scorecard of maximum utility, or -1 when none meets the floor.
func bestStrategy(evals []Evaluation) int {
	best := -1
	for i, ev := range evals {
		if ev.MeetsFloor && (best < 0 || ev.Utility > evals[best].Utility) {
			best = i
		}
	}
	return best
}

// EvaluateContext scores every candidate strategy against the raw dataset
// on the concurrent evaluation engine. The report is byte-identical for any
// Config.Parallelism; evaluations appear in portfolio order. The run is
// abandoned promptly when ctx is cancelled.
func (m *Middleware) EvaluateContext(ctx context.Context, raw *trace.Dataset) (evals []Evaluation, err error) {
	ctx, sp := m.cfg.Tracer.Start(ctx, "core.evaluate")
	defer func() { endSpan(sp, err) }()
	// No selection caching: Evaluate is a pure scorecard. It still benefits
	// from the reference-POI and attacker-extraction memoization.
	return m.evaluateAll(ctx, raw, m.hashContent(raw).trajectories, m.cfg.Parallelism)
}

// selectStrategies is the cached selection step shared by PublishContext
// and publishShard: score the portfolio, pick the winner and protect raw
// with it a second time to build the release — the scoring passes keep no
// protected data — or serve the whole result (scorecard, winner index,
// pre-pseudonymisation protected dataset) from the evaluation cache when
// the dataset content and the configuration fingerprint match a prior run.
// A hit is the scorecard a cache-less run reports; a miss scores every
// strategy in full, so warm and cold results are byte-identical on any
// input. raw's trajectories are hashed once here; every cache key of the
// run is derived from those hashes. With a cache the result is shared with
// it and must reach the caller only through handOut and scorecard.
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
	evals, err := m.evaluateAll(ctx, raw, hs.trajectories, budget)
	if err != nil {
		return nil, err
	}
	cs := &cachedSelection{evals: evals, winIdx: bestStrategy(evals)}
	if cs.winIdx >= 0 {
		win := m.strategies[cs.winIdx]
		if cs.prot, err = lppm.ProtectDatasetContext(ctx, win, raw, budget); err != nil {
			return nil, fmt.Errorf("core: strategy %s: %w", win.Name(), err)
		}
	}
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
// report. Scoring keeps no protected data, so the winner protects raw a
// second time to build the release. When no strategy meets the floor, it
// returns ErrNoStrategy and a selection whose Chosen field is empty. The
// run is abandoned promptly when ctx is cancelled.
func (m *Middleware) PublishContext(ctx context.Context, raw *trace.Dataset) (_ *trace.Dataset, _ *Selection, err error) {
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
