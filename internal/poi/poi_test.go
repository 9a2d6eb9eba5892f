package poi

import (
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

var (
	lyon = geo.Point{Lat: 45.7640, Lon: 4.8357}
	t0   = time.Date(2014, 12, 8, 8, 0, 0, 0, time.UTC)
)

// stayThenMove builds a trajectory that dwells at `at` for dwell (one fix a
// minute), then moves away east at 10 m/s for 10 minutes.
func stayThenMove(at geo.Point, dwell time.Duration) *trace.Trajectory {
	tr := &trace.Trajectory{User: "u"}
	ts := t0
	for ; ts.Before(t0.Add(dwell)); ts = ts.Add(time.Minute) {
		tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: at})
	}
	start := ts
	for ; ts.Before(start.Add(10 * time.Minute)); ts = ts.Add(time.Minute) {
		dx := 10 * ts.Sub(start).Seconds()
		tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: geo.Translate(at, dx, 0)})
	}
	return tr
}

func TestStayPointsFindsDwell(t *testing.T) {
	sp, err := NewStayPoints(StayPointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := stayThenMove(lyon, time.Hour)
	pois := sp.Extract(tr)
	if len(pois) != 1 {
		t.Fatalf("extracted %d POIs, want 1", len(pois))
	}
	p := pois[0]
	if d := geo.Distance(p.Center, lyon); d > 10 {
		t.Errorf("POI centre %f m from true location", d)
	}
	if p.Dwell() < 55*time.Minute {
		t.Errorf("dwell = %v, want ~59 min", p.Dwell())
	}
	if p.Fixes < 55 {
		t.Errorf("fixes = %d, want ~60", p.Fixes)
	}
}

func TestStayPointsIgnoresShortStop(t *testing.T) {
	sp, err := NewStayPoints(StayPointConfig{MinDuration: 15 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tr := stayThenMove(lyon, 5*time.Minute) // below threshold
	if pois := sp.Extract(tr); len(pois) != 0 {
		t.Errorf("extracted %d POIs from a 5-minute stop, want 0", len(pois))
	}
}

func TestStayPointsMultipleStops(t *testing.T) {
	sp, err := NewStayPoints(StayPointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	home := lyon
	work := geo.Translate(lyon, 3000, 1000)
	tr := &trace.Trajectory{User: "u"}
	ts := t0
	addStay := func(at geo.Point, d time.Duration) {
		for end := ts.Add(d); ts.Before(end); ts = ts.Add(time.Minute) {
			tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: at})
		}
	}
	addMove := func(from, to geo.Point) {
		dist := geo.Distance(from, to)
		dur := time.Duration(dist / 10 * float64(time.Second))
		for end := ts.Add(dur); ts.Before(end); ts = ts.Add(time.Minute) {
			frac := 1 - float64(end.Sub(ts))/float64(dur)
			tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: geo.Lerp(from, to, frac)})
		}
	}
	addStay(home, time.Hour)
	addMove(home, work)
	addStay(work, 2*time.Hour)
	addMove(work, home)
	addStay(home, time.Hour)

	pois := sp.Extract(tr)
	if len(pois) != 3 {
		t.Fatalf("extracted %d POIs, want 3 (home, work, home)", len(pois))
	}
	if d := geo.Distance(pois[0].Center, home); d > 20 {
		t.Errorf("first POI %f m from home", d)
	}
	if d := geo.Distance(pois[1].Center, work); d > 20 {
		t.Errorf("second POI %f m from work", d)
	}

	merged := Merge(pois, 200)
	if len(merged) != 2 {
		t.Fatalf("merged to %d POIs, want 2 (home, work)", len(merged))
	}
	if merged[0].Fixes != pois[0].Fixes+pois[2].Fixes {
		t.Errorf("merged home fixes = %d", merged[0].Fixes)
	}
}

func TestStayPointConfigValidation(t *testing.T) {
	if _, err := NewStayPoints(StayPointConfig{MaxDistance: -1}); err == nil {
		t.Error("negative MaxDistance should fail")
	}
	if _, err := NewStayPoints(StayPointConfig{MinDuration: -time.Second}); err == nil {
		t.Error("negative MinDuration should fail")
	}
}

func TestStayPointsEmptyTrajectory(t *testing.T) {
	sp, err := NewStayPoints(StayPointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Extract(&trace.Trajectory{}); got != nil {
		t.Errorf("Extract(empty) = %v, want nil", got)
	}
}

func TestDJClusterFindsDwell(t *testing.T) {
	dj, err := NewDJCluster(DJClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := stayThenMove(lyon, time.Hour)
	pois := dj.Extract(tr)
	if len(pois) != 1 {
		t.Fatalf("extracted %d POIs, want 1", len(pois))
	}
	if d := geo.Distance(pois[0].Center, lyon); d > 20 {
		t.Errorf("POI centre %f m from true location", d)
	}
}

func TestDJClusterJoinsRevisits(t *testing.T) {
	// Two separate one-hour visits to the same place on the same
	// trajectory must produce a single cluster (density-joinable), where
	// stay-point detection produces two.
	dj, err := NewDJCluster(DJClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trajectory{User: "u"}
	ts := t0
	away := geo.Translate(lyon, 5000, 0)
	addStay := func(at geo.Point, d time.Duration) {
		for end := ts.Add(d); ts.Before(end); ts = ts.Add(time.Minute) {
			tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: at})
		}
	}
	addStay(lyon, time.Hour)
	// Jump (teleport) far away and back: the jump fixes are fast and get
	// speed-filtered.
	addStay(away, 30*time.Minute)
	addStay(lyon, time.Hour)

	pois := dj.Extract(tr)
	if len(pois) != 2 {
		t.Fatalf("extracted %d POIs, want 2 (lyon joined, away)", len(pois))
	}
	// The lyon cluster must span both visits.
	var lyonPOI *POI
	for i := range pois {
		if geo.Distance(pois[i].Center, lyon) < 50 {
			lyonPOI = &pois[i]
		}
	}
	if lyonPOI == nil {
		t.Fatal("no cluster at lyon")
	}
	if lyonPOI.Leave.Sub(lyonPOI.Enter) < 2*time.Hour {
		t.Errorf("lyon cluster span = %v, want >= 2h30m window", lyonPOI.Leave.Sub(lyonPOI.Enter))
	}
}

func TestDJClusterSpeedFilterRemovesTravel(t *testing.T) {
	dj, err := NewDJCluster(DJClusterConfig{MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Pure movement: no POIs.
	tr := &trace.Trajectory{User: "u"}
	for i := 0; i < 120; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time: trace.InstantOf(t0.Add(time.Duration(i) * time.Minute)),
			Pos:  geo.Translate(lyon, float64(i)*300, 0), // 5 m/s
		})
	}
	if pois := dj.Extract(tr); len(pois) != 0 {
		t.Errorf("extracted %d POIs from pure travel, want 0", len(pois))
	}
}

func TestDJClusterConfigValidation(t *testing.T) {
	if _, err := NewDJCluster(DJClusterConfig{Eps: -1}); err == nil {
		t.Error("negative Eps should fail")
	}
	if _, err := NewDJCluster(DJClusterConfig{MinPts: -1}); err == nil {
		t.Error("negative MinPts should fail")
	}
}

func TestExtractorsOnSyntheticCity(t *testing.T) {
	// On generated data, both extractors must locate home and work for
	// most users: this is the ground-truth link the attack packages rely
	// on.
	ds, city, err := mobgen.Generate(mobgen.Config{Seed: 7, Users: 6, Days: 5})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStayPoints(StayPointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	perUser := ExtractAll(sp, ds)
	foundHome, foundWork := 0, 0
	for _, res := range city.Residents {
		pois := Merge(perUser[res.User], 250)
		for _, p := range pois {
			if geo.Distance(p.Center, res.Home) < 250 {
				foundHome++
				break
			}
		}
		for _, p := range pois {
			if geo.Distance(p.Center, res.Work) < 250 {
				foundWork++
				break
			}
		}
	}
	if foundHome < 6 {
		t.Errorf("home found for %d/6 users", foundHome)
	}
	if foundWork < 6 {
		t.Errorf("work found for %d/6 users", foundWork)
	}
}

func TestMergeEmptyAndSingle(t *testing.T) {
	if got := Merge(nil, 100); got != nil {
		t.Errorf("Merge(nil) = %v", got)
	}
	one := []POI{{Center: lyon, Fixes: 3}}
	if got := Merge(one, 100); len(got) != 1 {
		t.Errorf("Merge(single) = %d POIs", len(got))
	}
}
