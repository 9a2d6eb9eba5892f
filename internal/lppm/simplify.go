package lppm

import (
	"fmt"
	"math"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// Simplify is the path-generalisation baseline: Douglas-Peucker polyline
// simplification keeps only the records needed to describe the path within
// Tolerance metres. Unlike noise mechanisms it never displaces a released
// fix; unlike speed smoothing it keeps original timestamps. It fails as a
// privacy mechanism: the kept corner points sit exactly at the sensitive
// places (presence leaks verbatim), and on noisy data the dwell envelope
// survives simplification, so stay-point attacks keep working. It earns
// its place in the portfolio as the compression/generalisation baseline.
type Simplify struct {
	// Tolerance is the maximum path deviation in metres.
	Tolerance float64
}

var _ Mechanism = (*Simplify)(nil)

// NewSimplify returns a Douglas-Peucker generalisation mechanism.
func NewSimplify(tolerance float64) (*Simplify, error) {
	if tolerance <= 0 || math.IsNaN(tolerance) || math.IsInf(tolerance, 0) {
		return nil, fmt.Errorf("lppm: simplify tolerance must be positive and finite, got %v", tolerance)
	}
	return &Simplify{Tolerance: tolerance}, nil
}

// Name implements Mechanism.
func (s *Simplify) Name() string { return fmt.Sprintf("simplify(tol=%g)", s.Tolerance) }

// Protect implements Mechanism.
func (s *Simplify) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	if t.Len() == 0 {
		return dst, nil
	}
	for _, idx := range geo.SimplifyIndices(t.Points(), s.Tolerance) {
		dst = append(dst, t.Records[idx])
	}
	return dst, nil
}
