package poi

import (
	"fmt"
	"sort"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// DJClusterConfig parameterises DJ-Cluster.
type DJClusterConfig struct {
	// Eps is the neighbourhood radius in metres (default 150).
	Eps float64
	// MinPts is the minimum neighbourhood size to seed a cluster
	// (default 8).
	MinPts int
	// MaxSpeed drops fixes moving faster than this many m/s before
	// clustering, so that only quasi-stationary fixes form POIs
	// (default 0.8; set negative to keep all fixes).
	MaxSpeed float64
}

func (c DJClusterConfig) withDefaults() DJClusterConfig {
	if c.Eps == 0 {
		c.Eps = 150
	}
	if c.MinPts == 0 {
		c.MinPts = 8
	}
	if c.MaxSpeed == 0 {
		c.MaxSpeed = 0.8
	}
	return c
}

// Validate reports configuration errors.
func (c DJClusterConfig) Validate() error {
	if c.Eps < 0 {
		return fmt.Errorf("poi: Eps must be >= 0, got %v", c.Eps)
	}
	if c.MinPts < 0 {
		return fmt.Errorf("poi: MinPts must be >= 0, got %d", c.MinPts)
	}
	return nil
}

// DJCluster implements density-joinable clustering over the low-speed fixes
// of a trajectory. Unlike stay-point detection it does not rely on temporal
// contiguity, which makes it the attacker's tool of choice against
// mechanisms that shuffle or re-time records.
type DJCluster struct {
	cfg DJClusterConfig
}

var _ Extractor = (*DJCluster)(nil)

// NewDJCluster returns a DJ-Cluster extractor; zero fields of cfg take the
// documented defaults.
func NewDJCluster(cfg DJClusterConfig) (*DJCluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DJCluster{cfg: cfg.withDefaults()}, nil
}

// Extract implements Extractor.
func (d *DJCluster) Extract(t *trace.Trajectory) []POI {
	recs := slowFixes(t, d.cfg.MaxSpeed)
	if len(recs) == 0 {
		return nil
	}
	// Project once: clustering runs on a flat plane.
	pr := geo.NewProjection(recs[0].Pos)
	xys := make([]geo.XY, len(recs))
	for i, r := range recs {
		xys[i] = pr.Forward(r.Pos)
	}

	// Sort by X and use a sliding window to bound neighbourhood scans.
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xys[order[a]].X < xys[order[b]].X })
	posInOrder := make([]int, len(recs))
	for rank, idx := range order {
		posInOrder[idx] = rank
	}

	neighbours := func(i int) []int {
		var out []int
		xi := xys[i]
		// Walk left and right in x-order until |dx| > Eps.
		for rank := posInOrder[i]; rank >= 0; rank-- {
			j := order[rank]
			if xi.X-xys[j].X > d.cfg.Eps {
				break
			}
			if geo.Dist(xi, xys[j]) <= d.cfg.Eps {
				out = append(out, j)
			}
		}
		for rank := posInOrder[i] + 1; rank < len(order); rank++ {
			j := order[rank]
			if xys[j].X-xi.X > d.cfg.Eps {
				break
			}
			if geo.Dist(xi, xys[j]) <= d.cfg.Eps {
				out = append(out, j)
			}
		}
		return out
	}

	const unvisited, noise = 0, -1
	labels := make([]int, len(recs)) // 0 unvisited, -1 noise, >0 cluster id
	nextCluster := 1
	for i := range recs {
		if labels[i] != unvisited {
			continue
		}
		nb := neighbours(i)
		if len(nb) < d.cfg.MinPts {
			labels[i] = noise
			continue
		}
		id := nextCluster
		nextCluster++
		labels[i] = id
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if labels[j] == noise {
				labels[j] = id // border point
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = id
			if nbj := neighbours(j); len(nbj) >= d.cfg.MinPts {
				queue = append(queue, nbj...)
			}
		}
	}

	// Build one POI per cluster.
	type agg struct {
		pts   []geo.Point
		enter trace.Instant
		leave trace.Instant
	}
	clusters := make(map[int]*agg)
	for i, lbl := range labels {
		if lbl <= 0 {
			continue
		}
		a, ok := clusters[lbl]
		if !ok {
			a = &agg{enter: recs[i].Time, leave: recs[i].Time}
			clusters[lbl] = a
		}
		a.pts = append(a.pts, recs[i].Pos)
		a.enter = min(a.enter, recs[i].Time)
		a.leave = max(a.leave, recs[i].Time)
	}
	ids := make([]int, 0, len(clusters))
	for id := range clusters {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]POI, 0, len(ids))
	for _, id := range ids {
		a := clusters[id]
		out = append(out, POI{
			Center: geo.Centroid(a.pts),
			Enter:  a.enter,
			Leave:  a.leave,
			Fixes:  len(a.pts),
		})
	}
	return out
}

// slowFixes returns the records whose instantaneous speed (vs the previous
// fix) is at most maxSpeed m/s. A negative maxSpeed keeps everything.
func slowFixes(t *trace.Trajectory, maxSpeed float64) []trace.Record {
	if maxSpeed < 0 {
		return t.Records
	}
	var out []trace.Record
	for i, r := range t.Records {
		if i == 0 {
			out = append(out, r)
			continue
		}
		dt := r.Time.Sub(t.Records[i-1].Time).Seconds()
		if dt <= 0 {
			continue
		}
		if geo.Distance(t.Records[i-1].Pos, r.Pos)/dt <= maxSpeed {
			out = append(out, r)
		}
	}
	return out
}
