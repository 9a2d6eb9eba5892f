package lppm

import (
	"fmt"
	"math"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// SpeedSmoothing is the anonymisation strategy PRIVAPI contributes (§3 of
// the paper, later published by the same authors as Promesse): it re-samples
// a trajectory — typically one day of data — so that the released trace
// moves at constant speed along the original path. The spatial shape of the
// trajectory is preserved (supporting crowd-density and traffic analyses,
// claim C3) while the dwell-time signal that reveals where the user stopped
// is erased (claim C2).
//
// The algorithm has three phases:
//
//  1. spatial resampling: emit interpolated positions every Epsilon metres
//     of arc length along the original polyline;
//  2. extremity trimming: drop the first and last Trim resampled points,
//     hiding the origin and destination (usually the user's home);
//  3. temporal flattening: reassign timestamps uniformly between the
//     original start and end instants.
//
// Trajectories whose path is too short to yield at least two points after
// trimming are suppressed from the release (a user who never moved cannot
// have their stop hidden any other way).
type SpeedSmoothing struct {
	// Epsilon is the spatial resampling step in metres (default 100).
	Epsilon float64
	// Trim is the number of resampled points dropped at each extremity
	// (default 2).
	Trim int
}

var _ Mechanism = (*SpeedSmoothing)(nil)

// NewSpeedSmoothing returns a speed-smoothing mechanism with the given
// resampling step in metres. trim < 0 selects the default (2).
func NewSpeedSmoothing(epsilon float64, trim int) (*SpeedSmoothing, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return nil, fmt.Errorf("lppm: smoothing epsilon must be positive and finite, got %v", epsilon)
	}
	if trim < 0 {
		trim = 2
	}
	return &SpeedSmoothing{Epsilon: epsilon, Trim: trim}, nil
}

// Name implements Mechanism.
func (s *SpeedSmoothing) Name() string {
	return fmt.Sprintf("smoothing(eps=%g,trim=%d)", s.Epsilon, s.Trim)
}

// Protect implements Mechanism. The resampled positions are written
// straight into dst, trimmed in place, and then given their timestamps.
func (s *SpeedSmoothing) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	if t.Len() < 2 {
		return dst, nil // nothing to smooth: suppress
	}
	base := len(dst)
	dst = resampleArcLength(dst, t.Records, s.Epsilon)
	n := len(dst) - base
	if n <= 2*s.Trim+1 {
		return dst[:base], nil // too short after trimming: suppress
	}
	n = copy(dst[base:], dst[base+s.Trim:len(dst)-s.Trim])
	dst = dst[:base+n]

	start := t.Records[0].Time
	span := t.Records[len(t.Records)-1].Time.Sub(start)
	for i := range n {
		var ts trace.Instant
		if n == 1 {
			ts = start.Add(span / 2)
		} else {
			ts = start.Add(time.Duration(float64(span) * float64(i) / float64(n-1)))
		}
		dst[base+i].Time = ts
	}
	return dst, nil
}

// resampleArcLength walks the polyline defined by recs and appends to dst a
// record, positioned but not yet timed, at arc lengths eps, 2*eps, 3*eps, ...
func resampleArcLength(dst, recs []trace.Record, eps float64) []trace.Record {
	target := eps
	var acc float64
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1].Pos, recs[i].Pos
		d := geo.Distance(a, b)
		for d > 0 && target <= acc+d {
			frac := (target - acc) / d
			dst = append(dst, trace.Record{Pos: geo.Lerp(a, b, frac)})
			target += eps
		}
		acc += d
	}
	return dst
}
