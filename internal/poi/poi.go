// Package poi extracts points of interest (POIs) from mobility traces.
//
// The paper (§3) defines POIs as "places where a user spends significant
// amounts of time like his home, his office, a cinema": they carry rich
// semantic information and almost uniquely identify individuals. This
// package implements the two extractors used in the authors' companion work:
//
//   - stay-point detection (Li/Zheng): a maximal run of fixes that stays
//     within MaxDistance of its anchor for at least MinDuration;
//   - DJ-Cluster: density-joinable clustering of low-speed fixes, which is
//     what an attacker typically runs on protected data.
//
// Both return POI values carrying a centroid, a dwell time and the number of
// supporting fixes.
//
// Stay-point detection is the attack PRIVAPI simulates on every candidate
// strategy, so its loop is kept cheap: anchor-to-fix tests go through one
// geo.LatBand per trajectory, which settles nearly all of them without the
// cosine geo.Distance takes and always as geo.Distance would, and a stay's
// centroid is summed off the records with no slice built for it.
package poi

import (
	"fmt"
	"math"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// POI is an extracted point of interest: 40 bytes, no pointer.
type POI struct {
	// Center is the centroid of the supporting fixes.
	Center geo.Point
	// Enter and Leave bound the (first) visit.
	Enter trace.Instant
	Leave trace.Instant
	// Fixes is the number of records supporting the POI.
	Fixes int
}

// Dwell returns the visit duration.
func (p POI) Dwell() time.Duration { return p.Leave.Sub(p.Enter) }

// Extractor extracts POIs from a single trajectory.
type Extractor interface {
	// Extract returns the POIs found in t, in chronological order of
	// first visit when the notion applies.
	Extract(t *trace.Trajectory) []POI
}

// StayPointConfig parameterises stay-point detection.
type StayPointConfig struct {
	// MaxDistance is the roaming radius in metres (default 200).
	MaxDistance float64
	// MinDuration is the minimum dwell time (default 15 min).
	MinDuration time.Duration
}

func (c StayPointConfig) withDefaults() StayPointConfig {
	if c.MaxDistance == 0 {
		c.MaxDistance = 200
	}
	if c.MinDuration == 0 {
		c.MinDuration = 15 * time.Minute
	}
	return c
}

// Validate reports configuration errors.
func (c StayPointConfig) Validate() error {
	if c.MaxDistance < 0 {
		return fmt.Errorf("poi: MaxDistance must be >= 0, got %v", c.MaxDistance)
	}
	if c.MinDuration < 0 {
		return fmt.Errorf("poi: MinDuration must be >= 0, got %v", c.MinDuration)
	}
	return nil
}

// StayPoints is the classic stay-point detector.
type StayPoints struct {
	cfg StayPointConfig
}

var _ Extractor = (*StayPoints)(nil)

// NewStayPoints returns a stay-point extractor; zero fields of cfg take the
// documented defaults.
func NewStayPoints(cfg StayPointConfig) (*StayPoints, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StayPoints{cfg: cfg.withDefaults()}, nil
}

// Extract implements Extractor. A stay's centroid is summed in record
// order, as geo.Centroid sums it.
func (s *StayPoints) Extract(t *trace.Trajectory) []POI {
	recs := t.Records
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range recs {
		lo, hi = min(lo, r.Pos.Lat), max(hi, r.Pos.Lat)
	}
	band := geo.NewLatBand(lo, hi)
	var out []POI
	i := 0
	for i < len(recs) {
		j := i + 1
		for j < len(recs) && band.Within(recs[i].Pos, recs[j].Pos, s.cfg.MaxDistance) {
			j++
		}
		// recs[i:j] stay within MaxDistance of the anchor.
		if dwell := recs[j-1].Time.Sub(recs[i].Time); dwell >= s.cfg.MinDuration {
			var lat, lon float64
			for _, r := range recs[i:j] {
				lat += r.Pos.Lat
				lon += r.Pos.Lon
			}
			n := float64(j - i)
			out = append(out, POI{
				Center: geo.Point{Lat: lat / n, Lon: lon / n},
				Enter:  recs[i].Time,
				Leave:  recs[j-1].Time,
				Fixes:  j - i,
			})
			i = j
			continue
		}
		i++
	}
	return out
}

// ExtractAll runs the extractor on every trajectory of a dataset and groups
// the POIs by user.
func ExtractAll(e Extractor, d *trace.Dataset) map[string][]POI {
	out := make(map[string][]POI)
	for _, t := range d.Trajectories {
		if pois := e.Extract(t); len(pois) > 0 {
			out[t.User] = append(out[t.User], pois...)
		}
	}
	return out
}

// Merge collapses POIs whose centroids are within radius metres of each
// other into a single POI (centroid of centroids, summed fixes, widest time
// span). It is used to turn per-day POIs into per-user places.
func Merge(pois []POI, radius float64) []POI {
	var merged []POI
	for _, p := range pois {
		placed := false
		for i := range merged {
			if geo.Distance(merged[i].Center, p.Center) <= radius {
				m := &merged[i]
				total := float64(m.Fixes + p.Fixes)
				m.Center = geo.Point{
					Lat: (m.Center.Lat*float64(m.Fixes) + p.Center.Lat*float64(p.Fixes)) / total,
					Lon: (m.Center.Lon*float64(m.Fixes) + p.Center.Lon*float64(p.Fixes)) / total,
				}
				m.Fixes += p.Fixes
				m.Enter = min(m.Enter, p.Enter)
				m.Leave = max(m.Leave, p.Leave)
				placed = true
				break
			}
		}
		if !placed {
			merged = append(merged, p)
		}
	}
	return merged
}
