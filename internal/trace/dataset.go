package trace

import (
	"fmt"
	"sort"
	"time"

	"apisense/internal/geo"
)

// Dataset is a collection of trajectories, one or more per user. It is the
// unit PRIVAPI anonymises and publishes, and the unit the Honeycomb stores.
type Dataset struct {
	Trajectories []*Trajectory
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return &Dataset{} }

// Add appends a trajectory.
func (d *Dataset) Add(t *Trajectory) { d.Trajectories = append(d.Trajectories, t) }

// Len returns the number of trajectories.
func (d *Dataset) Len() int { return len(d.Trajectories) }

// NumRecords returns the total number of records across all trajectories.
func (d *Dataset) NumRecords() int {
	var n int
	for _, t := range d.Trajectories {
		n += len(t.Records)
	}
	return n
}

// Users returns the distinct user identifiers, sorted.
func (d *Dataset) Users() []string {
	seen := make(map[string]bool)
	for _, t := range d.Trajectories {
		seen[t.User] = true
	}
	users := make([]string, 0, len(seen))
	for u := range seen {
		users = append(users, u)
	}
	sort.Strings(users)
	return users
}

// ByUser groups trajectories by user identifier.
func (d *Dataset) ByUser() map[string][]*Trajectory {
	out := make(map[string][]*Trajectory)
	for _, t := range d.Trajectories {
		out[t.User] = append(out[t.User], t)
	}
	return out
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Trajectories: make([]*Trajectory, len(d.Trajectories))}
	for i, t := range d.Trajectories {
		out.Trajectories[i] = t.Clone()
	}
	return out
}

// Validate checks every trajectory.
func (d *Dataset) Validate() error {
	for i, t := range d.Trajectories {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("trajectory %d: %w", i, err)
		}
	}
	return nil
}

// BBox returns the bounding box of all records. ok is false when the dataset
// holds no records.
func (d *Dataset) BBox() (geo.BBox, bool) {
	var box geo.BBox
	found := false
	for _, t := range d.Trajectories {
		for _, r := range t.Records {
			if !found {
				box = geo.BBox{MinLat: r.Pos.Lat, MaxLat: r.Pos.Lat, MinLon: r.Pos.Lon, MaxLon: r.Pos.Lon}
				found = true
				continue
			}
			box = box.Extend(r.Pos)
		}
	}
	return box, found
}

// SplitDays splits every trajectory into calendar days, producing a new
// dataset whose trajectories each span a single day.
func (d *Dataset) SplitDays(loc *time.Location) *Dataset {
	out := NewDataset()
	for _, t := range d.Trajectories {
		out.Trajectories = append(out.Trajectories, t.SplitDays(loc)...)
	}
	return out
}

// Filter returns a dataset with only the trajectories accepted by keep.
func (d *Dataset) Filter(keep func(*Trajectory) bool) *Dataset {
	out := NewDataset()
	for _, t := range d.Trajectories {
		if keep(t) {
			out.Add(t)
		}
	}
	return out
}

// TimeSpan returns the earliest and latest record timestamps, in UTC. ok
// is false when the dataset holds no records.
func (d *Dataset) TimeSpan() (start, end time.Time, ok bool) {
	var s, e Instant
	for _, t := range d.Trajectories {
		if len(t.Records) == 0 {
			continue
		}
		ts, te := t.Records[0].Time, t.Records[len(t.Records)-1].Time
		if !ok {
			s, e, ok = ts, te, true
			continue
		}
		s, e = min(s, ts), max(e, te)
	}
	if !ok {
		return time.Time{}, time.Time{}, false
	}
	return s.Time(), e.Time(), true
}

// Stats summarises a dataset.
type Stats struct {
	Trajectories int
	Records      int
	Users        int
	TotalLength  float64       // metres
	TotalTime    time.Duration // sum of trajectory durations
}

// Summarize computes dataset statistics.
func (d *Dataset) Summarize() Stats {
	s := Stats{Trajectories: len(d.Trajectories), Users: len(d.Users())}
	for _, t := range d.Trajectories {
		s.Records += len(t.Records)
		s.TotalLength += t.Length()
		s.TotalTime += t.Duration()
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d users, %d trajectories, %d records, %.1f km, %s",
		s.Users, s.Trajectories, s.Records, s.TotalLength/1000, s.TotalTime)
}
