package metrics

import (
	"context"
	"math"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

var (
	lyon = geo.Point{Lat: 45.7640, Lon: 4.8357}
	t0   = time.Date(2014, 12, 8, 8, 0, 0, 0, time.UTC)
)

func testGrid(t *testing.T) *geo.Grid {
	t.Helper()
	box, _ := geo.NewBBox([]geo.Point{
		geo.Translate(lyon, -8000, -8000),
		geo.Translate(lyon, 8000, 8000),
	})
	g, err := geo.NewGrid(box, 250)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// clusterDataset puts nUsers at `at` for an hour each (one fix a minute).
func clusterDataset(at geo.Point, nUsers int, userPrefix string) *trace.Dataset {
	d := trace.NewDataset()
	for u := 0; u < nUsers; u++ {
		tr := &trace.Trajectory{User: userPrefix + string(rune('a'+u))}
		for i := 0; i < 60; i++ {
			tr.Records = append(tr.Records, trace.Record{
				Time: trace.InstantOf(t0.Add(time.Duration(i) * time.Minute)),
				Pos:  at,
			})
		}
		d.Add(tr)
	}
	return d
}

func mergeDatasets(ds ...*trace.Dataset) *trace.Dataset {
	out := trace.NewDataset()
	for _, d := range ds {
		out.Trajectories = append(out.Trajectories, d.Trajectories...)
	}
	return out
}

func TestUserDensityCountsDistinctUsers(t *testing.T) {
	g := testGrid(t)
	hot := geo.Translate(lyon, 1000, 1000)
	d := clusterDataset(hot, 5, "u")
	den := UserDensity(d, g)
	if got := den[g.CellOf(hot)]; got != 5 {
		t.Errorf("hot cell density = %v, want 5", got)
	}
}

func TestTopKOrderingAndTies(t *testing.T) {
	den := Density{
		{Row: 1, Col: 1}: 10,
		{Row: 2, Col: 2}: 30,
		{Row: 3, Col: 3}: 20,
		{Row: 4, Col: 4}: 20, // tie with row 3
	}
	top := TopK(den, 3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d cells", len(top))
	}
	if top[0] != (geo.Cell{Row: 2, Col: 2}) {
		t.Errorf("top[0] = %v", top[0])
	}
	// Tie at 20 broken by coordinates: row 3 before row 4.
	if top[1] != (geo.Cell{Row: 3, Col: 3}) || top[2] != (geo.Cell{Row: 4, Col: 4}) {
		t.Errorf("tie order wrong: %v", top)
	}
	if got := TopK(den, 100); len(got) != 4 {
		t.Errorf("TopK(100) = %d cells, want all 4", len(got))
	}
}

func TestTopKOverlapBounds(t *testing.T) {
	g := testGrid(t)
	hot1 := geo.Translate(lyon, 2000, 0)
	hot2 := geo.Translate(lyon, -2000, 0)
	d1 := mergeDatasets(clusterDataset(hot1, 6, "a"), clusterDataset(hot2, 3, "b"))
	den := UserDensity(d1, g)

	if got := TopKOverlap(den, den, 2); got != 1 {
		t.Errorf("self overlap = %v, want 1", got)
	}
	other := Density{{Row: 0, Col: 0}: 5, {Row: 0, Col: 1}: 4}
	if got := TopKOverlap(den, other, 2); got != 0 {
		t.Errorf("disjoint overlap = %v, want 0", got)
	}
	if got := TopKOverlap(den, den, 0); got != 0 {
		t.Errorf("k=0 overlap = %v, want 0", got)
	}
	if got := TopKOverlap(Density{}, den, 2); got != 0 {
		t.Errorf("empty raw overlap = %v, want 0", got)
	}
}

func TestCrowdedPlacesSurviveSmoothing(t *testing.T) {
	// Claim C3: hotspots computed from a smoothed release match the raw
	// hotspots. Use generated city data.
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 3, Users: 15, Days: 5})
	if err != nil {
		t.Fatal(err)
	}
	box, ok := ds.BBox()
	if !ok {
		t.Fatal("no bbox")
	}
	g, err := geo.NewGrid(box.Pad(500), 250)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := lppm.ProtectDatasetContext(context.Background(), sm, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	overlap := TopKOverlap(UserDensity(ds, g), UserDensity(prot, g), 20)
	if overlap < 0.6 {
		t.Errorf("smoothed top-20 overlap = %.2f, want >= 0.6 (claim C3)", overlap)
	}
}

func TestCoverage(t *testing.T) {
	g := testGrid(t)
	hot := geo.Translate(lyon, 1000, 1000)
	d := clusterDataset(hot, 2, "u")
	if got := Coverage(d, d, g); got != 1 {
		t.Errorf("self coverage = %v, want 1", got)
	}
	if got := Coverage(d, trace.NewDataset(), g); got != 0 {
		t.Errorf("empty coverage = %v, want 0", got)
	}
	if got := Coverage(trace.NewDataset(), d, g); got != 0 {
		t.Errorf("coverage with empty raw = %v, want 0", got)
	}
}

func TestCountTrafficAndForecast(t *testing.T) {
	g := testGrid(t)
	hot := geo.Translate(lyon, 500, 500)
	// Two identical days of 3 users visiting hot at 08:00.
	d := trace.NewDataset()
	for day := 0; day < 2; day++ {
		for u := 0; u < 3; u++ {
			tr := &trace.Trajectory{User: "u" + string(rune('a'+u))}
			base := t0.AddDate(0, 0, day)
			for i := 0; i < 30; i++ {
				tr.Records = append(tr.Records, trace.Record{
					Time: trace.InstantOf(base.Add(time.Duration(i) * time.Minute)),
					Pos:  hot,
				})
			}
			d.Add(tr)
		}
	}
	tc := CountTraffic(d, g)
	if len(tc.Days) != 2 {
		t.Fatalf("observed %d days, want 2", len(tc.Days))
	}
	ch := CellHour{Cell: g.CellOf(hot), Hour: 8}
	if got := tc.Visits[ch]["2014-12-08"]; got != 3 {
		t.Errorf("visits day1 = %v, want 3 (distinct users)", got)
	}

	f, err := NewForecaster(tc)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict(ch); got != 3 {
		t.Errorf("Predict = %v, want 3", got)
	}
	// Perfect self-forecast.
	errStats := f.Evaluate(tc)
	if errStats.MAE != 0 || errStats.RMSE != 0 {
		t.Errorf("self forecast error = %+v, want 0", errStats)
	}
	if errStats.Cells == 0 {
		t.Error("no cells evaluated")
	}
	if errStats.String() == "" {
		t.Error("empty String()")
	}
}

func TestForecasterErrors(t *testing.T) {
	if _, err := NewForecaster(&TrafficCounts{Days: map[string]bool{}}); err == nil {
		t.Error("empty training should fail")
	}
	g := testGrid(t)
	tc := CountTraffic(clusterDataset(lyon, 1, "u"), g)
	f, err := NewForecaster(tc)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Evaluate(&TrafficCounts{Days: map[string]bool{}}); got.Cells != 0 {
		t.Errorf("evaluating empty actual = %+v", got)
	}
}

func TestForecastPenalisesHallucinatedTraffic(t *testing.T) {
	g := testGrid(t)
	trainHot := geo.Translate(lyon, 3000, 0)
	actualHot := geo.Translate(lyon, -3000, 0)
	train := CountTraffic(clusterDataset(trainHot, 4, "u"), g)
	actual := CountTraffic(clusterDataset(actualHot, 4, "u"), g)
	f, err := NewForecaster(train)
	if err != nil {
		t.Fatal(err)
	}
	e := f.Evaluate(actual)
	if e.MAE == 0 {
		t.Error("forecast trained on the wrong hotspot should have error")
	}
	// Both the missed and the hallucinated cells must be scored.
	if e.Cells < 2 {
		t.Errorf("evaluated %d cell-hours, want >= 2", e.Cells)
	}
}

func TestSplitAtDay(t *testing.T) {
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 5, Users: 3, Days: 4})
	if err != nil {
		t.Fatal(err)
	}
	cut := time.Date(2014, 12, 10, 0, 0, 0, 0, time.UTC)
	before, after := SplitAtDay(ds, cut)
	if before.Len() != 3*2 || after.Len() != 3*2 {
		t.Errorf("split = %d/%d trajectories, want 6/6", before.Len(), after.Len())
	}
	for _, tr := range before.Trajectories {
		if start, _ := tr.Start(); !start.Before(cut) {
			t.Error("before split contains late trajectory")
		}
	}
}

func TestSpatialDistortion(t *testing.T) {
	raw := trace.NewDataset()
	tr := &trace.Trajectory{User: "alice"}
	for i := 0; i < 10; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time: trace.InstantOf(t0.Add(time.Duration(i) * time.Minute)),
			Pos:  lyon,
		})
	}
	raw.Add(tr)

	// Shift every record exactly 300 m east.
	shifted := raw.Clone()
	for i := range shifted.Trajectories[0].Records {
		shifted.Trajectories[0].Records[i].Pos = geo.Translate(lyon, 300, 0)
	}
	s := SpatialDistortion(raw, shifted)
	if math.Abs(s.Mean-300) > 1 {
		t.Errorf("distortion = %+v, want ~300", s)
	}
	if s.Points != 10 {
		t.Errorf("points = %d, want 10", s.Points)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}

	// Identity has zero distortion.
	z := SpatialDistortion(raw, raw)
	if z.Mean != 0 {
		t.Errorf("self distortion = %+v, want 0", z)
	}

	// Unknown users and out-of-span records are skipped.
	other := trace.NewDataset()
	other.Add(&trace.Trajectory{User: "nobody", Records: tr.Records})
	if got := SpatialDistortion(raw, other); got.Points != 0 {
		t.Errorf("unknown user scored %d points", got.Points)
	}
	if got := SpatialDistortion(raw, trace.NewDataset()); got.Points != 0 {
		t.Errorf("empty release scored %d points", got.Points)
	}
}

func TestSpatialDistortionOrdersMechanisms(t *testing.T) {
	// More noise means more distortion; the ordering must be monotone.
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 9, Users: 5, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, sigma := range []float64{10, 100, 500} {
		m, err := lppm.NewGaussianNoise(sigma, 1)
		if err != nil {
			t.Fatal(err)
		}
		prot, err := lppm.ProtectDatasetContext(context.Background(), m, ds, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := SpatialDistortion(ds, prot)
		if s.Mean <= prev {
			t.Errorf("sigma=%v: mean distortion %v not greater than previous %v", sigma, s.Mean, prev)
		}
		prev = s.Mean
	}
}
