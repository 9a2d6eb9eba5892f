package lppm

import (
	"math"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/poi"
	"apisense/internal/trace"
)

// dayWithStops builds a realistic day: home dwell, commute, office dwell,
// commute back, home dwell — one fix a minute.
func dayWithStops() (*trace.Trajectory, geo.Point, geo.Point) {
	home := lyon
	work := geo.Translate(lyon, 4000, 2000)
	tr := &trace.Trajectory{User: "alice"}
	ts := time.Date(2014, 12, 8, 0, 0, 0, 0, time.UTC)
	stay := func(at geo.Point, d time.Duration) {
		for end := ts.Add(d); ts.Before(end); ts = ts.Add(time.Minute) {
			tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: at})
		}
	}
	move := func(from, to geo.Point, speed float64) {
		dist := geo.Distance(from, to)
		dur := time.Duration(dist / speed * float64(time.Second))
		start := ts
		for end := ts.Add(dur); ts.Before(end); ts = ts.Add(time.Minute) {
			frac := float64(ts.Sub(start)) / float64(dur)
			tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: geo.Lerp(from, to, frac)})
		}
	}
	stay(home, 8*time.Hour)
	move(home, work, 10)
	stay(work, 8*time.Hour)
	move(work, home, 10)
	stay(home, 7*time.Hour)
	return tr, home, work
}

func TestSmoothingValidation(t *testing.T) {
	for _, eps := range []float64{0, -10, math.NaN(), math.Inf(1)} {
		if _, err := NewSpeedSmoothing(eps, 0); err == nil {
			t.Errorf("NewSpeedSmoothing(%v) should fail", eps)
		}
	}
	s, err := NewSpeedSmoothing(100, -1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trim != 2 {
		t.Errorf("negative trim should select default 2, got %d", s.Trim)
	}
}

func TestSmoothingConstantSpeed(t *testing.T) {
	tr, _, _ := dayWithStops()
	s, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() < 10 {
		t.Fatalf("smoothed trajectory too short: %d", out.Len())
	}
	// Time gaps must be uniform.
	gap0 := out.Records[1].Time.Sub(out.Records[0].Time)
	for i := 2; i < out.Len(); i++ {
		gap := out.Records[i].Time.Sub(out.Records[i-1].Time)
		if d := gap - gap0; d < -time.Second || d > time.Second {
			t.Fatalf("gap %d = %v, want ~%v", i, gap, gap0)
		}
	}
	// Consecutive points are at most Epsilon apart (straight-line distance
	// can be shorter on curves, never longer).
	for i := 1; i < out.Len(); i++ {
		if d := geo.Distance(out.Records[i-1].Pos, out.Records[i].Pos); d > 100*1.01 {
			t.Fatalf("segment %d spans %f m > epsilon", i, d)
		}
	}
}

func TestSmoothingErasesDwellTime(t *testing.T) {
	// The defining property: after smoothing, the user spends no more time
	// near their true stops than near any other point of the path.
	tr, home, work := dayWithStops()
	s, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	timeNear := func(target geo.Point, radius float64) time.Duration {
		var total time.Duration
		for i := 1; i < out.Len(); i++ {
			if geo.Distance(out.Records[i].Pos, target) <= radius {
				total += out.Records[i].Time.Sub(out.Records[i-1].Time)
			}
		}
		return total
	}
	// Raw data: 15h at home, 8h at work. Smoothed: time near any place is
	// proportional to path length through it. Total path ~12.3 km, so a
	// 250 m disc sees <= ~500 m of path: about 4% of the day (~1h).
	span := out.Records[out.Len()-1].Time.Sub(out.Records[0].Time)
	for _, site := range []struct {
		name string
		pos  geo.Point
	}{{"home", home}, {"work", work}} {
		near := timeNear(site.pos, 250)
		if frac := float64(near) / float64(span); frac > 0.10 {
			t.Errorf("smoothed trace spends %.1f%% of time near %s, want <10%%",
				frac*100, site.name)
		}
	}
}

func TestSmoothingDefeatsStayPointAttackSemantics(t *testing.T) {
	// Stay-point extraction on smoothed data must not single out the true
	// stops: extracted "POIs" (if any) are spread along the path, so
	// precision against the two true stops collapses.
	tr, home, work := dayWithStops()
	s, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := poi.NewStayPoints(poi.StayPointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rawPOIs := poi.Merge(sp.Extract(tr), 250)
	if len(rawPOIs) != 2 {
		t.Fatalf("raw extraction found %d POIs, want 2", len(rawPOIs))
	}
	smoothPOIs := sp.Extract(out)
	if len(smoothPOIs) == 0 {
		return // perfect hiding
	}
	hits := 0
	for _, p := range smoothPOIs {
		if geo.Distance(p.Center, home) < 250 || geo.Distance(p.Center, work) < 250 {
			hits++
		}
	}
	precision := float64(hits) / float64(len(smoothPOIs))
	if precision > 0.35 {
		t.Errorf("stay-point precision on smoothed data = %.2f (%d/%d), want < 0.35",
			precision, hits, len(smoothPOIs))
	}
}

func TestSmoothingSuppressesStationaryTrajectory(t *testing.T) {
	// A user who never leaves home cannot be protected by smoothing: the
	// trajectory must be suppressed.
	tr := &trace.Trajectory{User: "static"}
	ts := time.Date(2014, 12, 8, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts.Add(time.Duration(i) * time.Minute)), Pos: lyon})
	}
	s, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("stationary trajectory released with %d records, want suppression", out.Len())
	}
}

func TestSmoothingSuppressesTinyInputs(t *testing.T) {
	s, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 2; n++ {
		tr := walk("tiny", n, 1, time.Minute)
		out, err := protectOne(s, tr)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 0 {
			t.Errorf("n=%d: released %d records, want 0", n, out.Len())
		}
	}
}

func TestSmoothingTrimsEndpoints(t *testing.T) {
	// The first and last released positions must be at least Trim*Epsilon
	// of arc away from the true origin/destination.
	tr, home, _ := dayWithStops()
	s, err := NewSpeedSmoothing(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d := geo.Distance(out.Records[0].Pos, home); d < 250 {
		t.Errorf("first released point is %f m from home, want >= ~300", d)
	}
	if d := geo.Distance(out.Records[out.Len()-1].Pos, home); d < 250 {
		t.Errorf("last released point is %f m from home, want >= ~300", d)
	}
}

func TestSmoothingPreservesPathShape(t *testing.T) {
	// Every released point must lie on (within metres of) the original
	// path — smoothing moves time, not space.
	tr, _, _ := dayWithStops()
	s, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Records {
		best := math.Inf(1)
		for j := 1; j < tr.Len(); j++ {
			d := distToSegment(r.Pos, tr.Records[j-1].Pos, tr.Records[j].Pos)
			if d < best {
				best = d
			}
		}
		if best > 5 {
			t.Fatalf("released point %d is %f m off the original path", i, best)
		}
	}
}

func TestSmoothingDoesNotMutateInput(t *testing.T) {
	tr, _, _ := dayWithStops()
	before := tr.Clone()
	s, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := protectOne(s, tr); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		if tr.Records[i] != before.Records[i] {
			t.Fatal("Protect mutated its input")
		}
	}
}

// distToSegment returns the distance from p to segment [a,b] using the local
// planar projection.
func distToSegment(p, a, b geo.Point) float64 {
	pr := geo.NewProjection(a)
	pp := pr.Forward(p)
	aa := pr.Forward(a)
	bb := pr.Forward(b)
	abx, aby := bb.X-aa.X, bb.Y-aa.Y
	l2 := abx*abx + aby*aby
	if l2 == 0 {
		return geo.Dist(pp, aa)
	}
	t := ((pp.X-aa.X)*abx + (pp.Y-aa.Y)*aby) / l2
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return geo.Dist(pp, geo.XY{X: aa.X + t*abx, Y: aa.Y + t*aby})
}
