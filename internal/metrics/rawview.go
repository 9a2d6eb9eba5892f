package metrics

import (
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// RawView is the strategy-independent half of scoring a protected release
// against its raw dataset, prepared once and then read concurrently by one
// Score call per candidate strategy. It holds, per user, the raw
// trajectories, whose records it reads in place; the raw visited cells; the
// raw top-k crowded cells; and, when the dataset supports a train/test
// split, the held-out actual traffic and the error of the forecaster
// trained on the raw training days. A RawView is immutable once built, and
// the raw dataset must not change while it is in use.
type RawView struct {
	grid    *geo.Grid
	cells   idTable // raw visited cells, numbered as in every Score tally; never added to after NewRawView
	k       int
	top     map[geo.Cell]bool // raw top-k crowded cells
	tracks  map[string][]track
	traffic *trafficSplit // nil when traffic is not evaluable
}

// trafficSplit is the raw side of the traffic-forecasting score.
type trafficSplit struct {
	cut     trace.Instant
	actual  []hourMean // held-out days, sorted by cell-hour
	baseMAE float64    // error of the forecaster trained on the raw days before cut
}

// NewRawView prepares raw for scoring on grid g with top-k crowded cells.
// Trajectories starting before cut train the traffic forecaster and those
// starting at or after it are its held-out truth; when either side is empty
// (a zero cut leaves the training side empty) every Score reports a traffic
// utility of 0.
func NewRawView(raw *trace.Dataset, g *geo.Grid, k int, cut time.Time) *RawView {
	rc := tallyCells(raw, g, false)
	v := &RawView{
		grid:   g,
		cells:  rc.extra,
		k:      k,
		tracks: newTracks(raw),
	}
	if k > 0 {
		v.top = cellSet(topCells(rc.scored(), k))
	}
	train, test := SplitAtDay(raw, cut)
	if train.Len() > 0 && test.Len() > 0 {
		actual := tallyCells(test, g, true).hourlyMeans()
		v.traffic = &trafficSplit{
			cut:     trace.InstantOf(cut), // in range: a raw trajectory starts on either side
			actual:  actual,
			baseMAE: forecastError(tallyCells(train, g, true).hourlyMeans(), actual).MAE,
		}
	}
	return v
}

// Score is the utility scorecard of one protected release.
type Score struct {
	// Coverage is the fraction of raw cells the release still visits.
	Coverage float64
	// HotspotOverlap is the F1 overlap of the raw and released top-k
	// crowded cells.
	HotspotOverlap float64
	// TrafficUtility is the raw forecaster's held-out error over that of
	// a forecaster trained on the release, clamped to [0,1]; 0 when not
	// evaluable.
	TrafficUtility float64
	// Distortion is the time-aligned spatial distortion.
	Distortion DistortionStats
}

// Score scores a protected release of the view's raw dataset in one pass
// over its records: each is binned once for the three grid scores and
// located once on its user's raw trajectories for the distortion. The
// result equals what Coverage, TopKOverlap over UserDensity, the
// SplitAtDay/CountTraffic/Forecaster chain and SpatialDistortion give
// separately. It is a Scorer fed the release user by user.
func (v *RawView) Score(protected *trace.Dataset) Score {
	s := NewScorer(v)
	for i, group := range groupByUser(protected) {
		for _, t := range group {
			s.Add(t, int32(i+1))
		}
	}
	return s.Score()
}

// Scorer accumulates the Score of a protected release fed to it one
// trajectory at a time, so a release never has to exist as a whole: each
// trajectory's records are binned and located as Add reads them, and Add
// keeps nothing of the trajectory. Scorers over disjoint sets of users
// Merge exactly into the Scorer of their union, since every part of a
// Score is an order-free sum: per-cell and per-(cell, hour) distinct-user
// counts add, and so do the distortion scan's exact sum and counts. A
// Scorer is not safe for concurrent use; score a release in parallel with
// one Scorer per range of users and merge them.
type Scorer struct {
	view    *RawView
	cells   cellTally
	scan    distortionScan
	trained bool
}

// NewScorer returns an empty Scorer bound to v.
func NewScorer(v *RawView) *Scorer {
	s := &Scorer{}
	s.Reset(v)
	return s
}

// Reset empties s and binds it to v, keeping the room its cell table and
// visit table have grown. Reset(nil) binds s to no view, so that a Scorer
// waiting to be reused keeps none alive.
func (s *Scorer) Reset(v *RawView) {
	s.view = v
	if v == nil {
		s.cells.reset(nil, &noCells)
	} else {
		s.cells.reset(v.grid, &v.cells)
	}
	s.scan = distortionScan{cursors: s.scan.cursors[:0]}
	s.trained = false
}

// noCells is the empty base table of a Scorer bound to no view.
var noCells idTable

// Add scores one protected trajectory of the user numbered uid (uids are
// positive). A user's trajectories must be added one after the other, and
// no two users of the releases merged into one Scorer may share a uid.
func (s *Scorer) Add(t *trace.Trajectory, uid int32) {
	v := s.view
	train := v.traffic != nil && len(t.Records) > 0 && t.Records[0].Time < v.traffic.cut
	s.trained = s.trained || train
	s.cells.add(t, uid, train)
	s.scan.add(t, v.tracks[t.User])
}

// Merge adds what o has scored to s. Both must be bound to the same
// RawView and have scored disjoint sets of users; o is left as it was.
func (s *Scorer) Merge(o *Scorer) {
	s.cells.merge(&o.cells)
	s.scan.merge(&o.scan)
	s.trained = s.trained || o.trained
}

// Score returns the scorecard of everything added or merged so far.
func (s *Scorer) Score() Score {
	v, cells := s.view, &s.cells
	sc := Score{Coverage: coverage(cells), Distortion: s.scan.stats()}
	if v.k > 0 {
		sc.HotspotOverlap = topOverlap(v.top, topCells(cells.scored(), v.k))
	}
	if s.trained {
		sc.TrafficUtility = 1
		if mae := forecastError(cells.hourlyMeans(), v.traffic.actual).MAE; mae != 0 {
			sc.TrafficUtility = min(v.traffic.baseMAE/mae, 1)
		}
	}
	return sc
}
