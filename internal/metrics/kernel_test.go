package metrics

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

// refScore composes the oracles of reference_test.go the way
// core.evaluateStrategy and core.newTrafficBaseline did before RawView:
// the scorecard one Score call must reproduce.
func refScore(raw, prot *trace.Dataset, g *geo.Grid, k int, cut time.Time) Score {
	return Score{
		Coverage:       refCoverage(raw, prot, g),
		HotspotOverlap: refTopKOverlap(refUserDensity(raw, g), refUserDensity(prot, g), k),
		TrafficUtility: refTrafficUtility(raw, prot, g, cut),
		Distortion:     refSpatialDistortion(raw, prot),
	}
}

func refTrafficUtility(raw, prot *trace.Dataset, g *geo.Grid, cut time.Time) float64 {
	rawTrain, rawTest := SplitAtDay(raw, cut)
	if rawTrain.Len() == 0 || rawTest.Len() == 0 {
		return 0
	}
	actual := refCountTraffic(rawTest, g)
	baseF, err := refNewForecaster(refCountTraffic(rawTrain, g))
	if err != nil {
		return 0
	}
	baseMAE := baseF.Evaluate(actual).MAE
	protTrain, _ := SplitAtDay(prot, cut)
	if protTrain.Len() == 0 {
		return 0
	}
	protF, err := refNewForecaster(refCountTraffic(protTrain, g))
	if err != nil {
		return 0
	}
	protMAE := protF.Evaluate(actual).MAE
	if protMAE == 0 {
		return 1
	}
	u := baseMAE / protMAE
	if u > 1 {
		u = 1
	}
	return u
}

// sameFloat is == that also holds between two NaNs.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

func sameStats(a, b DistortionStats) bool {
	return sameFloat(a.Mean, b.Mean) && a.Points == b.Points
}

func sameScore(a, b Score) bool {
	return sameFloat(a.Coverage, b.Coverage) && sameFloat(a.HotspotOverlap, b.HotspotOverlap) &&
		sameFloat(a.TrafficUtility, b.TrafficUtility) && sameStats(a.Distortion, b.Distortion)
}

// checkAgainstReference holds every exported scorer and the fused Score to
// the oracles on one raw/protected pair: exact equality, no tolerance.
func checkAgainstReference(t testing.TB, raw, prot *trace.Dataset, g *geo.Grid, k int, cut time.Time) {
	t.Helper()
	for name, d := range map[string]*trace.Dataset{"raw": raw, "protected": prot} {
		if got, want := UserDensity(d, g), refUserDensity(d, g); !reflect.DeepEqual(got, want) {
			t.Errorf("UserDensity(%s) = %v, want %v", name, got, want)
		}
		got, want := CountTraffic(d, g), refCountTraffic(d, g)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("CountTraffic(%s) = %+v, want %+v", name, got, want)
		}
		f, err := NewForecaster(got)
		rf, rerr := refNewForecaster(want)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("NewForecaster(%s) err = %v, want %v", name, err, rerr)
		}
		if err != nil {
			continue
		}
		for ch, mean := range rf.mean {
			if got := f.Predict(ch); got != mean {
				t.Errorf("Predict(%s, %v) = %v, want %v", name, ch, got, mean)
			}
		}
		if got := f.Predict(CellHour{Cell: geo.Cell{Row: -1, Col: -1}, Hour: 25}); got != 0 {
			t.Errorf("Predict of an unseen cell-hour = %v, want 0", got)
		}
		// Each forecaster against the other dataset's counts: missed and
		// hallucinated cell-hours both occur.
		for other, od := range map[string]*trace.Dataset{"raw": raw, "protected": prot} {
			actual := refCountTraffic(od, g)
			if got, want := f.Evaluate(actual), rf.Evaluate(actual); got != want {
				t.Errorf("Forecaster(%s).Evaluate(%s) = %+v, want %+v", name, other, got, want)
			}
		}
	}
	if got, want := Coverage(raw, prot, g), refCoverage(raw, prot, g); got != want {
		t.Errorf("Coverage = %v, want %v", got, want)
	}
	rd, pd := refUserDensity(raw, g), refUserDensity(prot, g)
	for _, kk := range []int{-1, 0, 1, 3, k, 1 << 20} {
		if got, want := TopKOverlap(rd, pd, kk), refTopKOverlap(rd, pd, kk); got != want {
			t.Errorf("TopKOverlap(k=%d) = %v, want %v", kk, got, want)
		}
		if kk >= 0 {
			if got, want := TopK(pd, kk), refTopK(pd, kk); !reflect.DeepEqual(got, want) {
				t.Errorf("TopK(k=%d) = %v, want %v", kk, got, want)
			}
		}
	}
	if got, want := SpatialDistortion(raw, prot), refSpatialDistortion(raw, prot); !sameStats(got, want) {
		t.Errorf("SpatialDistortion = %+v, want %+v", got, want)
	}
	for _, kk := range []int{0, k} {
		if got, want := NewRawView(raw, g, kk, cut).Score(prot), refScore(raw, prot, g, kk, cut); !sameScore(got, want) {
			t.Errorf("Score(k=%d) = %+v, want %+v", kk, got, want)
		}
	}
}

// defaultPortfolio mirrors core.DefaultStrategies (core imports this
// package, so the test cannot), with identity in front.
func defaultPortfolio(t testing.TB, origin geo.Point) []lppm.Mechanism {
	t.Helper()
	out := []lppm.Mechanism{lppm.Identity{}}
	add := func(m lppm.Mechanism, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	for _, eps := range []float64{50, 100, 200} {
		add(lppm.NewSpeedSmoothing(eps, 2))
	}
	for _, eps := range []float64{0.01, 0.002} {
		add(lppm.NewGeoInd(eps, 1))
	}
	add(lppm.NewCloaking(800, origin))
	add(lppm.NewDownsample(20))
	return out
}

// TestKernelMatchesReferenceOnPortfolio runs identity and the seven default
// strategies over generated city data with lost fixes, on the analysis grid
// core builds, with the last day held out.
func TestKernelMatchesReferenceOnPortfolio(t *testing.T) {
	raw, city, g, cut := analysisSetup(t, mobgen.Config{Seed: 12, Users: 6, Days: 3, Dropout: 0.2})
	for _, m := range defaultPortfolio(t, city.Center) {
		t.Run(m.Name(), func(t *testing.T) {
			prot, err := lppm.ProtectDatasetContext(context.Background(), m, raw, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, raw, prot, g, 20, cut)
			if got := NewRawView(raw, g, 20, cut).Score(prot); got.TrafficUtility == 0 {
				t.Errorf("traffic utility not evaluated: %+v", got)
			}
		})
	}
}

// analysisSetup generates a mobgen dataset and the analysis grid core builds
// for it (250 m cells over the padded bounding box), with the last day held
// out.
func analysisSetup(t testing.TB, cfg mobgen.Config) (*trace.Dataset, *mobgen.City, *geo.Grid, time.Time) {
	t.Helper()
	raw, city, err := mobgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	box, _ := raw.BBox()
	g, err := geo.NewGrid(box.Pad(500), 250)
	if err != nil {
		t.Fatal(err)
	}
	_, end, _ := raw.TimeSpan()
	end = end.Add(-time.Nanosecond) // the last fix is at midnight
	return raw, city, g, time.Date(end.Year(), end.Month(), end.Day(), 0, 0, 0, 0, time.UTC)
}

// traj builds a trajectory from (minute offset from t0, metres east, metres
// north) triples.
func traj(user string, base time.Time, fixes ...[3]float64) *trace.Trajectory {
	t := &trace.Trajectory{User: user}
	for _, f := range fixes {
		t.Records = append(t.Records, trace.Record{
			Time: trace.InstantOf(base.Add(time.Duration(f[0] * float64(time.Minute)))),
			Pos:  geo.Translate(lyon, f[1], f[2]),
		})
	}
	return t
}

func dataset(ts ...*trace.Trajectory) *trace.Dataset {
	return &trace.Dataset{Trajectories: ts}
}

func TestKernelMatchesReferenceOnEdgeCases(t *testing.T) {
	g := testGrid(t)
	day2 := t0.AddDate(0, 0, 1)
	old := time.Date(1969, 12, 30, 22, 30, 0, 0, time.UTC)
	walk := [][3]float64{{0, 0, 0}, {10, 300, 0}, {20, 600, 100}, {30, 900, 400}, {70, 900, 400}, {80, 1200, 400}}
	cases := []struct {
		name      string
		raw, prot *trace.Dataset
		cut       time.Time
	}{
		{
			name: "duplicate timestamps on both sides",
			raw:  dataset(traj("a", t0, [3]float64{0, 0, 0}, [3]float64{5, 100, 0}, [3]float64{5, 400, 0}, [3]float64{5, 700, 0}, [3]float64{9, 900, 0})),
			prot: dataset(traj("a", t0, [3]float64{5, 50, 0}, [3]float64{5, 60, 0}, [3]float64{7, 0, 0}, [3]float64{9, 0, 0}, [3]float64{9, 10, 0})),
		},
		{
			name: "raw trajectories of one user overlap in time",
			raw: dataset(
				traj("a", t0, walk...),
				traj("b", t0, [3]float64{0, -500, 0}, [3]float64{60, -900, 0}),
				traj("a", t0, [3]float64{15, 5000, 5000}, [3]float64{90, 5200, 5000}),
			),
			prot: dataset(traj("a", t0, [3]float64{5, 0, 0}, [3]float64{20, 0, 0}, [3]float64{75, 0, 0}, [3]float64{85, 0, 0})),
		},
		{
			name: "protected records before and after the raw span",
			raw:  dataset(traj("a", t0, walk...)),
			prot: dataset(traj("a", t0, [3]float64{-30, 0, 0}, [3]float64{0, 10, 0}, [3]float64{80, 10, 0}, [3]float64{81, 0, 0}, [3]float64{500, 0, 0})),
		},
		{
			name: "unsorted protected records",
			raw:  dataset(traj("a", t0, walk...)),
			prot: dataset(traj("a", t0, [3]float64{75, 0, 0}, [3]float64{5, 0, 0}, [3]float64{65, 0, 0}, [3]float64{65, 9, 9}, [3]float64{12, 0, 0}, [3]float64{79, 0, 0})),
		},
		{
			name: "unsorted raw records",
			raw:  dataset(traj("a", t0, [3]float64{0, 0, 0}, [3]float64{40, 300, 0}, [3]float64{20, 600, 100}, [3]float64{10, 900, 400}, [3]float64{80, 1200, 400})),
			prot: dataset(traj("a", t0, [3]float64{5, 0, 0}, [3]float64{15, 0, 0}, [3]float64{25, 0, 0}, [3]float64{45, 0, 0}, [3]float64{80, 0, 0})),
		},
		{
			name: "points clamped outside the grid",
			raw:  dataset(traj("a", t0, [3]float64{0, 0, 0}, [3]float64{10, 50000, 0}, [3]float64{20, -50000, 50000})),
			prot: dataset(traj("a", t0, [3]float64{0, 90000, 0}, [3]float64{10, 0, -90000}, [3]float64{20, -90000, 90000})),
		},
		{
			name: "pre-1970 timestamps floor to their hour and day",
			raw: dataset(
				traj("a", old, walk...), traj("b", old, walk...),
				traj("a", old.AddDate(0, 0, 1), walk...), traj("a", old.AddDate(0, 0, 2), walk...),
			),
			prot: dataset(traj("a", old, [3]float64{0, 0, 0}, [3]float64{45, 300, 0}, [3]float64{100, 0, 0}), traj("b", old.AddDate(0, 0, 1), walk...)),
			cut:  time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		},
		{
			name: "train and test days, users interleaved and revisiting",
			raw: dataset(
				traj("a", t0, walk...), traj("b", t0, walk...), traj("a", t0.Add(2*time.Hour), walk...),
				traj("c", day2, walk...), traj("a", day2, walk...), traj("b", day2.Add(time.Hour), walk...),
			),
			prot: dataset(
				traj("b", t0, walk...), traj("a", t0, [3]float64{0, 0, 0}, [3]float64{61, 0, 0}, [3]float64{62, 300, 0}, [3]float64{63, 0, 0}),
				traj("b", t0.Add(30*time.Minute), walk...), traj("c", day2, walk...), traj("z", t0, walk...),
			),
			cut: time.Date(2014, 12, 9, 0, 0, 0, 0, time.UTC),
		},
		{
			name: "empty trajectories among full ones",
			raw:  dataset(&trace.Trajectory{User: "a"}, traj("a", t0, walk...), &trace.Trajectory{User: "b"}),
			prot: dataset(&trace.Trajectory{User: "b"}, traj("a", t0, walk...), &trace.Trajectory{User: "a"}),
			cut:  day2,
		},
		{name: "empty protected dataset", raw: dataset(traj("a", t0, walk...)), prot: trace.NewDataset()},
		{name: "empty raw dataset", raw: trace.NewDataset(), prot: dataset(traj("a", t0, walk...))},
		{name: "both empty", raw: trace.NewDataset(), prot: trace.NewDataset()},
		{
			name: "a NaN coordinate in the release",
			raw:  dataset(traj("a", t0, walk...)),
			prot: dataset(&trace.Trajectory{User: "a", Records: []trace.Record{
				{Time: trace.InstantOf(t0.Add(time.Minute)), Pos: lyon},
				{Time: trace.InstantOf(t0.Add(2 * time.Minute)), Pos: geo.Point{Lat: math.NaN(), Lon: lyon.Lon}},
				{Time: trace.InstantOf(t0.Add(3 * time.Minute)), Pos: lyon},
			}}),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstReference(t, c.raw, c.prot, g, 2, c.cut)
			checkAgainstReference(t, c.prot, c.raw, g, 2, c.cut)
		})
	}
}

// TestTallyTablesGrowAgainstReference drives the kernel's cell and visit
// tables through many doublings, which the fuzzer's small inputs never do:
// three users each walk 1 500 distinct-cell steps over six days, coming
// back to a per-user home cell between steps, and the release walks
// another stride that reaches rows the raw walks never enter.
func TestTallyTablesGrowAgainstReference(t *testing.T) {
	g := testGrid(t)
	walk := func(user string, u, stride, rows int) *trace.Trajectory {
		tr := &trace.Trajectory{User: user}
		home := geo.Cell{Row: 2 * u, Col: 3 * u}
		for i := 0; i < 3000; i++ {
			cell := home
			if i%2 == 0 {
				j := (i/2*stride + u*311) % (rows * g.Cols())
				cell = geo.Cell{Row: j / g.Cols(), Col: j % g.Cols()}
			}
			tr.Records = append(tr.Records, trace.Record{
				Time: trace.InstantOf(t0.Add(time.Duration(i) * 3 * time.Minute)),
				Pos:  g.CenterOf(cell),
			})
		}
		return tr
	}
	raw, prot := trace.NewDataset(), trace.NewDataset()
	for u, user := range []string{"a", "b", "c"} {
		raw.Add(walk(user, u, 7, 40))
		prot.Add(walk(user, u, 13, g.Rows()))
	}
	cut := t0.Truncate(24*time.Hour).AddDate(0, 0, 4)
	checkAgainstReference(t, raw, prot, g, 20, cut)
	checkAgainstReference(t, prot, raw, g, 20, cut)

	view := NewRawView(raw, g, 20, cut)
	if view.cells.len() < 2000 {
		t.Errorf("raw walks visit %d cells, want thousands", view.cells.len())
	}
	c := newCellTally(g, &view.cells)
	c.addDataset(prot, true)
	if c.extra.len() < 256 || c.hours.len() < 3000 || c.days() < 3 {
		t.Errorf("release over the raw cells: %d cells outside them, %d visits over %d days; want hundreds, thousands, at least 3",
			c.extra.len(), c.hours.len(), c.days())
	}
}

// TestLongStayAcrossHours: a stay is collapsed to one table touch per hour,
// and still counts one visit in each hour it spans — including across
// midnight.
func TestLongStayAcrossHours(t *testing.T) {
	g := testGrid(t)
	stay := &trace.Trajectory{User: "a"}
	for i := 0; i < 300; i++ {
		stay.Records = append(stay.Records, trace.Record{Time: trace.InstantOf(t0.Add(14*time.Hour + time.Duration(i)*time.Minute)), Pos: lyon})
	}
	d := dataset(stay)
	tc := CountTraffic(d, g)
	if !reflect.DeepEqual(tc, refCountTraffic(d, g)) {
		t.Fatalf("CountTraffic differs from reference: %+v", tc)
	}
	if len(tc.Days) != 2 || len(tc.Visits) != 5 {
		t.Errorf("5 h stay from 22:00 = %d days, %d cell-hours; want 2 and 5", len(tc.Days), len(tc.Visits))
	}
}

// TestScanMeanMatchesExactSum: the scan's mean is the exact one, on
// everything a distance can be and on what it cannot (NaN, negative,
// infinite, negative zero), whether the values are pushed into one scan or
// split between scans that are merged in order.
func TestScanMeanMatchesExactSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, math.SmallestNonzeroFloat64, 1e-310, 1, 1, math.MaxFloat64, math.Inf(1), 250, 250}
	for _, n := range []int{0, 1, 2, 17, 255, 256, 1000, 20000} {
		for _, taint := range []float64{0, math.NaN(), -1, math.Copysign(0, -1), math.Inf(-1)} {
			a := make([]float64, n)
			for i := range a {
				switch rng.Intn(4) {
				case 0:
					a[i] = special[rng.Intn(len(special))]
				case 1:
					a[i] = math.Float64frombits(rng.Uint64() >> 1) // any non-negative pattern
					if math.IsNaN(a[i]) {
						a[i] = 0
					}
				default:
					a[i] = rng.ExpFloat64() * 500
				}
			}
			if n > 0 && (taint != 0 || math.Signbit(taint)) {
				a[rng.Intn(n)] = taint
			}
			want := refSummarize(a)
			for _, parts := range splitAt(rng, len(a)) {
				var scans []distortionScan
				for _, part := range parts {
					var s distortionScan
					for _, d := range a[part[0]:part[1]] {
						s.push(d)
					}
					scans = append(scans, s)
				}
				for i := 1; i < len(scans); i++ {
					scans[0].merge(&scans[i])
				}
				if got := scans[0].stats(); !sameStats(got, want) {
					t.Errorf("n=%d taint=%v in %d scans: stats = %+v, want %+v", n, taint, len(parts), got, want)
				}
			}
		}
	}
}

// splitAt returns ways to cut n values into 1 to 4 contiguous ranges at
// points drawn from rng: the whole, then one split into each count of
// ranges.
func splitAt(rng *rand.Rand, n int) [][][2]int {
	out := [][][2]int{{{0, n}}}
	for k := 2; k <= 4; k++ {
		cuts := []int{0}
		for range k - 1 {
			cuts = append(cuts, rng.Intn(n+1))
		}
		slices.Sort(cuts)
		var parts [][2]int
		for i, c := range cuts {
			end := n
			if i+1 < len(cuts) {
				end = cuts[i+1]
			}
			parts = append(parts, [2]int{c, end})
		}
		out = append(out, parts)
	}
	return out
}

// TestExactSumMatchesBig: the superaccumulator rounds as math/big does,
// across the whole exponent range, both signs, cancellation to tiny or zero
// totals, subnormals, totals past the largest float64, and enough values
// to trigger its periodic carry; and so do 1 to 4 accumulators that each
// add a range of the values and are merged in order.
func TestExactSumMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	anyFinite := func() float64 {
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	cases := map[string][]float64{
		"empty":      nil,
		"zeros":      {0, math.Copysign(0, -1)},
		"one-ulp":    {1, 0x1p-52, 0x1p-53, 0x1p-53},
		"tie-even":   {1, 0x1p-53},
		"tie-odd":    {1 + 0x1p-52, 0x1p-53},
		"cancel":     {1e308, 1, -1e308, 0x1p-1074},
		"subnormal":  {math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, -0x1p-1060},
		"overflow":   {math.MaxFloat64, math.MaxFloat64, -1},
		"underflow":  {-math.MaxFloat64, -math.MaxFloat64},
		"near-max":   {math.MaxFloat64, 0x1p970, -0x1p969},
		"cancel-all": {0.1, 0.2, -0.3, 0.3, -0.2, -0.1},
	}
	for i := range 50 {
		vals := make([]float64, 1+rng.Intn(300))
		for j := range vals {
			switch i % 3 {
			case 0:
				vals[j] = anyFinite()
			case 1:
				vals[j] = math.Ldexp(rng.Float64()-0.5, rng.Intn(80)-40)
			default:
				vals[j] = rng.ExpFloat64() * 500
			}
		}
		cases[fmt.Sprintf("random-%d", i)] = vals
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		vals := cases[name]
		want := refExactSum(vals)
		for _, parts := range splitAt(rng, len(vals)) {
			accs := make([]exactSum, len(parts))
			for i, part := range parts {
				for _, v := range vals[part[0]:part[1]] {
					accs[i].add(v)
				}
			}
			for _, acc := range accs[1:] {
				accs[0].merge(acc)
			}
			if got := accs[0].round(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s in %d accumulators: exact sum = %v, want %v", name, len(parts), got, want)
			}
		}
	}
	var acc exactSum
	acc.adds = 1<<30 - 3 // the next carry is three values away
	for range 10 {
		acc.add(math.MaxFloat64)
		acc.add(-math.MaxFloat64)
		acc.add(0x1p-1074)
	}
	if got := acc.round(); got != 10*0x1p-1074 {
		t.Errorf("sum across a periodic carry = %v, want %v", got, 10*0x1p-1074)
	}

	// Two sides that each stand three values before their periodic carry,
	// holding in their chunks what 2³⁰−3 values with two digits near 2³²
	// leave there. Added chunk to chunk uncarried, they would leave no room
	// for the ten values added after the merge.
	v := math.Ldexp(1<<53-1, -423) // digits 2³²−2¹¹ and 2³²−1
	side := func() exactSum {
		var s exactSum
		s.add(v)
		for c := range s.chunk {
			s.chunk[c] *= 1<<30 - 3
		}
		s.adds = 1<<30 - 3
		return s
	}
	merged := side()
	merged.merge(side())
	for c, x := range merged.chunk[:len(merged.chunk)-1] {
		if x < 0 || x >= 1<<33 {
			t.Errorf("chunk %d after a merge = %#x, want it in [0, 2³³)", c, x)
		}
	}
	for range 10 {
		merged.add(v)
	}
	exact := new(big.Float).SetPrec(4096).SetFloat64(v)
	want, _ := exact.Mul(exact, big.NewFloat(2*(1<<30-3)+10)).Float64()
	if got := merged.round(); got != want {
		t.Errorf("sum past a merge of two near-full sides = %v, want %v", got, want)
	}
}

// TestScoreIndependentOfOrder: a release whose trajectories come in another
// order scores bit for bit the same, the mean distortion included, on
// every strategy of the default portfolio.
func TestScoreIndependentOfOrder(t *testing.T) {
	raw, city, g, cut := analysisSetup(t, mobgen.Config{Seed: 5, Users: 8, Days: 3})
	view := NewRawView(raw, g, 20, cut)
	rng := rand.New(rand.NewSource(11))
	for _, m := range defaultPortfolio(t, city.Center) {
		prot, err := lppm.ProtectDatasetContext(context.Background(), m, raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := view.Score(prot)
		for range 3 {
			shuffled := &trace.Dataset{Trajectories: slices.Clone(prot.Trajectories)}
			rng.Shuffle(len(shuffled.Trajectories), func(i, j int) {
				shuffled.Trajectories[i], shuffled.Trajectories[j] = shuffled.Trajectories[j], shuffled.Trajectories[i]
			})
			got := view.Score(shuffled)
			if !sameScore(got, want) || math.Float64bits(got.Distortion.Mean) != math.Float64bits(want.Distortion.Mean) {
				t.Errorf("%s: shuffled release scores %+v, want %+v", m.Name(), got, want)
			}
		}
	}
}

// sameBits reports whether two scorecards are equal bit for bit.
func sameBits(a, b Score) bool {
	fa := []float64{a.Coverage, a.HotspotOverlap, a.TrafficUtility, a.Distortion.Mean}
	fb := []float64{b.Coverage, b.HotspotOverlap, b.TrafficUtility, b.Distortion.Mean}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Distortion.Points == b.Distortion.Points
}

// scorePartitioned scores prot's users in contiguous ranges, one Scorer
// each, and merges the ranges in order into the first. A range ends after
// user i (in first-appearance order) when bit i of cuts is set. The first
// Scorer is a reused one: it scored all of prot, as one user, before its
// Reset.
func scorePartitioned(v *RawView, prot *trace.Dataset, cuts uint64) Score {
	first := NewScorer(v)
	for _, t := range prot.Trajectories {
		first.Add(t, 1)
	}
	first.Score()
	first.Reset(v)
	parts := []*Scorer{first}
	groups := groupByUser(prot)
	for i, group := range groups {
		for _, t := range group {
			parts[len(parts)-1].Add(t, int32(i+1))
		}
		if cuts&(1<<i) != 0 && i+1 < len(groups) {
			parts = append(parts, NewScorer(v))
		}
	}
	for _, p := range parts[1:] {
		first.Merge(p)
	}
	return first.Score()
}

// TestScorerPartitionsMatchScore: splitting a release's users into 1 to 8
// contiguous ranges, scoring each range on its own Scorer and merging them
// gives Score's scorecard bit for bit, on every strategy of the default
// portfolio.
func TestScorerPartitionsMatchScore(t *testing.T) {
	raw, city, g, cut := analysisSetup(t, mobgen.Config{Seed: 5, Users: 8, Days: 3})
	view := NewRawView(raw, g, 20, cut)
	for _, m := range defaultPortfolio(t, city.Center) {
		prot, err := lppm.ProtectDatasetContext(context.Background(), m, raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := view.Score(prot)
		for _, cuts := range []uint64{0, 1, 0b1010, 0b0110_1101, 0xff} {
			if got := scorePartitioned(view, prot, cuts); !sameBits(got, want) {
				t.Errorf("%s, cuts %08b: merged partials score %+v, want %+v", m.Name(), cuts, got, want)
			}
		}
	}
}

// FuzzScoreMatchesReference decodes the input into a small raw dataset and
// a release of it — users, trajectories, times and positions all chosen by
// the bytes, times unsorted and repeating, positions inside and outside the
// grid — and holds every scorer to the reference oracles. The high bits of
// the first byte split the release's users into contiguous ranges, whose
// merged Scorers must score the release as Score does, bit for bit.
func FuzzScoreMatchesReference(f *testing.F) {
	f.Add([]byte{}) // the scenarios are in testdata/fuzz/FuzzScoreMatchesReference
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		g := testGrid(t)
		raw, prot, cut := decodeFuzzDatasets(data)
		checkAgainstReference(t, raw, prot, g, 3, cut)
		if len(data) > 0 {
			view := NewRawView(raw, g, 3, cut)
			if got, want := scorePartitioned(view, prot, uint64(data[0]>>2)), view.Score(prot); !sameBits(got, want) {
				t.Errorf("ranges %06b: merged partials score %+v, want %+v", data[0]>>2, got, want)
			}
		}
	})
}

var scoreSink Score

// BenchmarkScore scores a smoothing and a geo-indistinguishability release
// of a 16-user × 6-day mobgen dataset against a RawView prepared once, as
// core scores each candidate strategy.
func BenchmarkScore(b *testing.B) {
	raw, _, g, cut := analysisSetup(b, mobgen.Config{Seed: 1, Users: 16, Days: 6})
	view := NewRawView(raw, g, 20, cut)
	smoothing, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		b.Fatal(err)
	}
	geoind, err := lppm.NewGeoInd(0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []lppm.Mechanism{smoothing, geoind} {
		prot, err := lppm.ProtectDatasetContext(context.Background(), m, raw, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				scoreSink = view.Score(prot)
			}
		})
	}
}

var viewSink *RawView

// BenchmarkNewRawView prepares the raw side of scoring for the dataset of
// BenchmarkScore.
func BenchmarkNewRawView(b *testing.B) {
	raw, _, g, cut := analysisSetup(b, mobgen.Config{Seed: 1, Users: 16, Days: 6})
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		viewSink = NewRawView(raw, g, 20, cut)
	}
}

// decodeFuzzDatasets reads 4-byte records: a header byte (bit 7: release
// or raw; bit 6: start a new trajectory; bits 0-1: user), a time byte (units
// of 17 minutes from two days before t0, so that three days and the
// pre-dawn hours repeat often) and two position bytes (units of 150 m
// around the grid, the extremes falling outside it). The first byte of the
// input picks the train/test cut.
func decodeFuzzDatasets(data []byte) (raw, prot *trace.Dataset, cut time.Time) {
	raw, prot = trace.NewDataset(), trace.NewDataset()
	if len(data) == 0 {
		return raw, prot, cut
	}
	origin := t0.AddDate(0, 0, -2).Truncate(24 * time.Hour)
	cut = origin.AddDate(0, 0, int(data[0]%4))
	users := []string{"a", "b", "c", "d"}
	for rest := data[1:]; len(rest) >= 4; rest = rest[4:] {
		d := raw
		if rest[0]&0x80 != 0 {
			d = prot
		}
		user := users[rest[0]&3]
		if rest[0]&0x40 != 0 || d.Len() == 0 || d.Trajectories[d.Len()-1].User != user {
			d.Add(&trace.Trajectory{User: user})
		}
		tr := d.Trajectories[d.Len()-1]
		tr.Records = append(tr.Records, trace.Record{
			Time: trace.InstantOf(origin.Add(time.Duration(rest[1]) * 17 * time.Minute)),
			Pos:  geo.Translate(lyon, (float64(rest[2])-128)*150, (float64(rest[3])-128)*150),
		})
	}
	return raw, prot, cut
}
