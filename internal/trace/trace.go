// Package trace defines the mobility-data model shared by the whole stack:
// timestamped location records, per-user trajectories and multi-user
// datasets, together with the operations privacy mechanisms and metrics
// need (day splitting, resampling, statistics) and CSV/JSON codecs.
//
// A trajectory is the unit PRIVAPI anonymises ("typically one day of data",
// §3 of the paper); a dataset is what the Hive collects and the Honeycomb
// stores before publication.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"apisense/internal/geo"
)

// Record is a single timestamped location fix: 32 bytes, no pointer.
type Record struct {
	Time Instant
	Pos  geo.Point
	// Accuracy is the reported GPS accuracy in metres (0 when unknown).
	Accuracy float64
}

// Trajectory is a time-ordered sequence of records belonging to one user.
type Trajectory struct {
	// User identifies the contributor. Anonymised releases replace it with
	// a pseudonym.
	User string
	// Records are sorted by ascending time.
	Records []Record
}

// ErrEmpty is returned by operations that need at least one record.
var ErrEmpty = errors.New("trace: empty trajectory")

// Len returns the number of records.
func (t *Trajectory) Len() int { return len(t.Records) }

// Clone returns a deep copy of the trajectory.
func (t *Trajectory) Clone() *Trajectory {
	out := &Trajectory{User: t.User, Records: make([]Record, len(t.Records))}
	copy(out.Records, t.Records)
	return out
}

// Sort orders records by ascending timestamp (stable).
func (t *Trajectory) Sort() {
	sort.SliceStable(t.Records, func(i, j int) bool {
		return t.Records[i].Time < t.Records[j].Time
	})
}

// Validate checks temporal ordering and coordinate sanity.
func (t *Trajectory) Validate() error {
	for i, r := range t.Records {
		if !r.Pos.Valid() {
			return fmt.Errorf("trace: record %d of user %q has invalid position %v", i, t.User, r.Pos)
		}
		if i > 0 && r.Time < t.Records[i-1].Time {
			return fmt.Errorf("trace: record %d of user %q is out of order", i, t.User)
		}
	}
	return nil
}

// Start returns the timestamp of the first record, in UTC.
func (t *Trajectory) Start() (time.Time, error) {
	if len(t.Records) == 0 {
		return time.Time{}, ErrEmpty
	}
	return t.Records[0].Time.Time(), nil
}

// End returns the timestamp of the last record, in UTC.
func (t *Trajectory) End() (time.Time, error) {
	if len(t.Records) == 0 {
		return time.Time{}, ErrEmpty
	}
	return t.Records[len(t.Records)-1].Time.Time(), nil
}

// Duration returns End - Start (zero for trajectories with <2 records).
func (t *Trajectory) Duration() time.Duration {
	if len(t.Records) < 2 {
		return 0
	}
	return t.Records[len(t.Records)-1].Time.Sub(t.Records[0].Time)
}

// Length returns the travelled path length in metres.
func (t *Trajectory) Length() float64 {
	var total float64
	for i := 1; i < len(t.Records); i++ {
		total += geo.Distance(t.Records[i-1].Pos, t.Records[i].Pos)
	}
	return total
}

// Points returns the positions of all records, in order.
func (t *Trajectory) Points() []geo.Point {
	pts := make([]geo.Point, len(t.Records))
	for i, r := range t.Records {
		pts[i] = r.Pos
	}
	return pts
}

// SplitDays splits the trajectory into per-calendar-day sub-trajectories in
// the given location. Days appear in chronological order. The paper's speed
// smoothing operates on "typically one day of data".
func (t *Trajectory) SplitDays(loc *time.Location) []*Trajectory {
	if loc == nil {
		loc = time.UTC
	}
	if len(t.Records) == 0 {
		return nil
	}
	var out []*Trajectory
	var cur *Trajectory
	var curYear, curDay int
	var curMonth time.Month
	for _, r := range t.Records {
		year, month, day := r.Time.Time().In(loc).Date()
		if cur == nil || day != curDay || month != curMonth || year != curYear {
			cur = &Trajectory{User: t.User}
			curYear, curMonth, curDay = year, month, day
			out = append(out, cur)
		}
		cur.Records = append(cur.Records, r)
	}
	return out
}

// At returns the interpolated position of the moving user at time ts. The
// second return value is false when ts falls outside the trajectory span or
// the trajectory is empty.
func (t *Trajectory) At(ts Instant) (geo.Point, bool) {
	n := len(t.Records)
	if n == 0 {
		return geo.Point{}, false
	}
	if ts < t.Records[0].Time || ts > t.Records[n-1].Time {
		return geo.Point{}, false
	}
	// Binary search for the segment containing ts.
	i := sort.Search(n, func(i int) bool { return t.Records[i].Time >= ts })
	return t.interpolate(i, ts), true
}

// interpolate returns the position at ts given i, the index of the first
// record not before ts.
func (t *Trajectory) interpolate(i int, ts Instant) geo.Point {
	if i == 0 {
		return t.Records[0].Pos
	}
	prev, next := t.Records[i-1], t.Records[i]
	span := next.Time.Sub(prev.Time)
	if span <= 0 {
		return next.Pos
	}
	frac := float64(ts.Sub(prev.Time)) / float64(span)
	return geo.Lerp(prev.Pos, next.Pos, frac)
}

// Resample returns a copy of the trajectory sampled at the fixed period.
// Positions are linearly interpolated. It returns an empty trajectory when
// the input has fewer than two records.
func (t *Trajectory) Resample(period time.Duration) (*Trajectory, error) {
	if period <= 0 {
		return nil, fmt.Errorf("trace: resample period must be positive, got %v", period)
	}
	out := &Trajectory{User: t.User}
	if len(t.Records) < 2 {
		return out, nil
	}
	first, last := t.Records[0].Time, t.Records[len(t.Records)-1].Time
	// Samples are taken in time order, so the first record not before the
	// sample only ever moves forward.
	i := 0
	for ts := first; ts <= last; ts = ts.Add(period) {
		for t.Records[i].Time < ts {
			i++
		}
		out.Records = append(out.Records, Record{Time: ts, Pos: t.interpolate(i, ts)})
	}
	return out, nil
}

// Speeds returns the per-segment speeds in metres/second. Segments with a
// non-positive time delta are skipped.
func (t *Trajectory) Speeds() []float64 {
	var out []float64
	for i := 1; i < len(t.Records); i++ {
		dt := t.Records[i].Time.Sub(t.Records[i-1].Time).Seconds()
		if dt <= 0 {
			continue
		}
		out = append(out, geo.Distance(t.Records[i-1].Pos, t.Records[i].Pos)/dt)
	}
	return out
}
