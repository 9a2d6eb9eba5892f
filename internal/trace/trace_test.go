package trace

import (
	"math"
	"reflect"
	"testing"
	"time"
	_ "time/tzdata" // TestSplitDaysAcrossDST needs Europe/Paris on any host

	"apisense/internal/geo"
)

var lyon = geo.Point{Lat: 45.7640, Lon: 4.8357}

var t0 = time.Date(2014, 12, 8, 8, 0, 0, 0, time.UTC) // Middleware'14 week

// walkTrajectory builds a trajectory moving east at a constant vMS m/s with
// one fix every step for n records.
func walkTrajectory(user string, n int, vMS float64, step time.Duration) *Trajectory {
	t := &Trajectory{User: user}
	for i := 0; i < n; i++ {
		dx := vMS * step.Seconds() * float64(i)
		t.Records = append(t.Records, Record{
			Time: InstantOf(t0.Add(time.Duration(i) * step)),
			Pos:  geo.Translate(lyon, dx, 0),
		})
	}
	return t
}

func TestTrajectoryBasics(t *testing.T) {
	tr := walkTrajectory("alice", 11, 1.5, 10*time.Second)
	if tr.Len() != 11 {
		t.Fatalf("Len = %d, want 11", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d := tr.Duration(); d != 100*time.Second {
		t.Errorf("Duration = %v, want 100s", d)
	}
	wantLen := 1.5 * 100
	if l := tr.Length(); math.Abs(l-wantLen) > 0.5 {
		t.Errorf("Length = %f, want ~%f", l, wantLen)
	}
	start, err := tr.Start()
	if err != nil || !start.Equal(t0) {
		t.Errorf("Start = %v, %v", start, err)
	}
	end, err := tr.End()
	if err != nil || !end.Equal(t0.Add(100*time.Second)) {
		t.Errorf("End = %v, %v", end, err)
	}
}

func TestEmptyTrajectory(t *testing.T) {
	tr := &Trajectory{User: "bob"}
	if _, err := tr.Start(); err == nil {
		t.Error("Start on empty should error")
	}
	if _, err := tr.End(); err == nil {
		t.Error("End on empty should error")
	}
	if tr.Duration() != 0 || tr.Length() != 0 {
		t.Error("empty trajectory should have zero duration and length")
	}
	if _, ok := tr.At(InstantOf(t0)); ok {
		t.Error("At on empty should report not-ok")
	}
}

func TestValidateDetectsDisorder(t *testing.T) {
	tr := walkTrajectory("alice", 5, 1, time.Minute)
	tr.Records[2].Time = InstantOf(t0.Add(10 * time.Minute)) // out of order
	if err := tr.Validate(); err == nil {
		t.Error("Validate should detect out-of-order records")
	}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate after Sort: %v", err)
	}
}

func TestValidateDetectsBadPosition(t *testing.T) {
	tr := walkTrajectory("alice", 3, 1, time.Minute)
	tr.Records[1].Pos = geo.Point{Lat: 200, Lon: 0}
	if err := tr.Validate(); err == nil {
		t.Error("Validate should detect invalid position")
	}
}

func TestAtInterpolates(t *testing.T) {
	tr := walkTrajectory("alice", 2, 2, 100*time.Second) // 200 m apart
	mid, ok := tr.At(InstantOf(t0.Add(50 * time.Second)))
	if !ok {
		t.Fatal("At mid: not ok")
	}
	want := geo.Translate(lyon, 100, 0)
	if d := geo.Distance(mid, want); d > 1 {
		t.Errorf("At mid = %v, %f m away from expected", mid, d)
	}
	if _, ok := tr.At(InstantOf(t0.Add(-time.Second))); ok {
		t.Error("At before start should be not-ok")
	}
	if _, ok := tr.At(InstantOf(t0.Add(101 * time.Second))); ok {
		t.Error("At after end should be not-ok")
	}
}

func TestResample(t *testing.T) {
	tr := walkTrajectory("alice", 11, 1, 10*time.Second) // 100 s span
	rs, err := tr.Resample(25 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 5 { // 0,25,50,75,100
		t.Fatalf("resampled Len = %d, want 5", rs.Len())
	}
	for i := 1; i < rs.Len(); i++ {
		dt := rs.Records[i].Time.Sub(rs.Records[i-1].Time)
		if dt != 25*time.Second {
			t.Errorf("resample gap = %v, want 25s", dt)
		}
	}
	if _, err := tr.Resample(0); err == nil {
		t.Error("Resample(0) should fail")
	}
}

// TestResampleMatchesAt: the forward cursor yields, sample for sample, what
// a fresh At lookup yields — on uneven gaps, repeated timestamps and periods
// both finer and coarser than the fixes.
func TestResampleMatchesAt(t *testing.T) {
	tr := &Trajectory{User: "alice"}
	for i, off := range []time.Duration{0, 7, 7, 7, 30, 31, 90, 600, 601, 601, 1000} {
		tr.Records = append(tr.Records, Record{Time: InstantOf(t0.Add(off * time.Second)), Pos: geo.Translate(lyon, float64(i*i)*10, float64(i)*5)})
	}
	for _, period := range []time.Duration{time.Second, 7 * time.Second, 45 * time.Second, 400 * time.Second, time.Hour} {
		rs, err := tr.Resample(period)
		if err != nil {
			t.Fatal(err)
		}
		var want []Record
		for ts := InstantOf(t0); ts <= InstantOf(t0.Add(1000*time.Second)); ts = ts.Add(period) {
			pos, ok := tr.At(ts)
			if !ok {
				t.Fatalf("At(%v) inside the span not ok", ts)
			}
			want = append(want, Record{Time: ts, Pos: pos})
		}
		if !reflect.DeepEqual(rs.Records, want) {
			t.Errorf("period %v: Resample = %v, want %v", period, rs.Records, want)
		}
	}
}

func TestSpeeds(t *testing.T) {
	tr := walkTrajectory("alice", 6, 3, 10*time.Second)
	for _, v := range tr.Speeds() {
		if math.Abs(v-3) > 0.01 {
			t.Errorf("speed = %f, want ~3", v)
		}
	}
}

func TestSplitDays(t *testing.T) {
	tr := &Trajectory{User: "carol"}
	for day := 0; day < 3; day++ {
		for i := 0; i < 4; i++ {
			tr.Records = append(tr.Records, Record{
				Time: InstantOf(t0.AddDate(0, 0, day).Add(time.Duration(i) * time.Hour)),
				Pos:  lyon,
			})
		}
	}
	days := tr.SplitDays(time.UTC)
	if len(days) != 3 {
		t.Fatalf("SplitDays = %d days, want 3", len(days))
	}
	for i, d := range days {
		if d.Len() != 4 {
			t.Errorf("day %d has %d records, want 4", i, d.Len())
		}
		if d.User != "carol" {
			t.Errorf("day %d user = %q", i, d.User)
		}
	}
	if got := (&Trajectory{}).SplitDays(nil); got != nil {
		t.Errorf("SplitDays on empty = %v, want nil", got)
	}
}

// TestSplitDaysAcrossDST: days are calendar days of the given location, on
// the 25-hour day that ends summer time, the 23-hour day that starts it and
// across a year end; the split equals grouping by the formatted local date.
func TestSplitDaysAcrossDST(t *testing.T) {
	paris, err := time.LoadLocation("Europe/Paris")
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []time.Time{
		time.Date(2014, 10, 25, 20, 0, 0, 0, paris), // 26 Oct 2014: 03:00 -> 02:00
		time.Date(2015, 3, 28, 20, 0, 0, 0, paris),  // 29 Mar 2015: 02:00 -> 03:00
		time.Date(2014, 12, 30, 20, 0, 0, 0, paris),
	} {
		tr := &Trajectory{User: "dave"}
		for i := 0; i < 60*4; i++ { // 60 h, a fix every 15 min
			tr.Records = append(tr.Records, Record{Time: InstantOf(start.Add(time.Duration(i) * 15 * time.Minute)), Pos: lyon})
		}
		var want [][]Record
		var day string
		for _, r := range tr.Records {
			if d := r.Time.Time().In(paris).Format("2006-01-02"); d != day {
				day = d
				want = append(want, nil)
			}
			want[len(want)-1] = append(want[len(want)-1], r)
		}
		got := tr.SplitDays(paris)
		if len(got) != len(want) || len(want) != 4 {
			t.Fatalf("from %v: SplitDays = %d days, want %d (4)", start, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Records, want[i]) {
				t.Errorf("from %v: day %d has %d records, want %d", start, i, len(got[i].Records), len(want[i]))
			}
		}
		// The same instants split differently in UTC: local midnight is
		// 22:00 or 23:00 UTC.
		if utc := tr.SplitDays(nil); reflect.DeepEqual(utc[0].Records, got[0].Records) {
			t.Errorf("from %v: UTC and Paris days coincide", start)
		}
	}
}

func TestDatasetBasics(t *testing.T) {
	d := NewDataset()
	d.Add(walkTrajectory("alice", 5, 1, time.Minute))
	d.Add(walkTrajectory("bob", 7, 1, time.Minute))
	d.Add(walkTrajectory("alice", 3, 1, time.Minute))

	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if d.NumRecords() != 15 {
		t.Errorf("NumRecords = %d, want 15", d.NumRecords())
	}
	users := d.Users()
	if len(users) != 2 || users[0] != "alice" || users[1] != "bob" {
		t.Errorf("Users = %v", users)
	}
	if got := len(d.ByUser()["alice"]); got != 2 {
		t.Errorf("alice has %d trajectories, want 2", got)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}

	stats := d.Summarize()
	if stats.Users != 2 || stats.Records != 15 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.String() == "" {
		t.Error("Stats.String is empty")
	}
}

func TestDatasetCloneIsDeep(t *testing.T) {
	d := NewDataset()
	d.Add(walkTrajectory("alice", 3, 1, time.Minute))
	c := d.Clone()
	c.Trajectories[0].User = "evil"
	c.Trajectories[0].Records[0].Pos = geo.Point{}
	if d.Trajectories[0].User != "alice" {
		t.Error("Clone shares user field")
	}
	if d.Trajectories[0].Records[0].Pos == (geo.Point{}) {
		t.Error("Clone shares record storage")
	}
}

func TestDatasetBBoxAndTimeSpan(t *testing.T) {
	d := NewDataset()
	if _, ok := d.BBox(); ok {
		t.Error("BBox on empty dataset should be not-ok")
	}
	if _, _, ok := d.TimeSpan(); ok {
		t.Error("TimeSpan on empty dataset should be not-ok")
	}
	d.Add(walkTrajectory("alice", 5, 2, time.Minute))
	box, ok := d.BBox()
	if !ok {
		t.Fatal("BBox not ok")
	}
	if !box.Contains(lyon) {
		t.Error("BBox should contain the start point")
	}
	start, end, ok := d.TimeSpan()
	if !ok || !start.Equal(t0) || !end.Equal(t0.Add(4*time.Minute)) {
		t.Errorf("TimeSpan = %v..%v ok=%v", start, end, ok)
	}
}

func TestDatasetFilter(t *testing.T) {
	d := NewDataset()
	d.Add(walkTrajectory("alice", 5, 1, time.Minute))
	d.Add(walkTrajectory("bob", 50, 1, time.Minute))
	long := d.Filter(func(tr *Trajectory) bool { return tr.Len() >= 10 })
	if long.Len() != 1 || long.Trajectories[0].User != "bob" {
		t.Errorf("Filter kept %d trajectories", long.Len())
	}
}

func TestPseudonymizer(t *testing.T) {
	if _, err := NewPseudonymizer(nil); err == nil {
		t.Error("empty key should be rejected")
	}
	p1, err := NewPseudonymizer([]byte("release-1"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPseudonymizer([]byte("release-2"))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Pseudonym("alice") != p1.Pseudonym("alice") {
		t.Error("pseudonym is not stable")
	}
	if p1.Pseudonym("alice") == p1.Pseudonym("bob") {
		t.Error("different users collide")
	}
	if p1.Pseudonym("alice") == p2.Pseudonym("alice") {
		t.Error("pseudonyms are linkable across releases")
	}

	d := NewDataset()
	for _, user := range []string{"alice", "bob", "alice"} {
		d.Add(walkTrajectory(user, 3, 1, time.Minute))
	}
	anon := p1.Apply(d)
	for i, tr := range anon.Trajectories {
		if want := p1.Pseudonym(d.Trajectories[i].User); tr.User != want {
			t.Errorf("trajectory %d: Apply gave %q, want Pseudonym's %q", i, tr.User, want)
		}
	}
	if d.Trajectories[0].User != "alice" {
		t.Error("Apply mutated the input dataset")
	}
}
