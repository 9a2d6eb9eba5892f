package poi

import (
	"context"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

// portfolio mirrors core.DefaultStrategies (core imports this package, so
// the test cannot), with identity in front.
func portfolio(t testing.TB, origin geo.Point) []lppm.Mechanism {
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

// samePOIs is equality down to the bits of every coordinate.
func samePOIs(a, b []POI) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if math.Float64bits(p.Center.Lat) != math.Float64bits(q.Center.Lat) ||
			math.Float64bits(p.Center.Lon) != math.Float64bits(q.Center.Lon) ||
			p.Enter != q.Enter || p.Leave != q.Leave || p.Fixes != q.Fixes {
			return false
		}
	}
	return true
}

// TestStayPointsMatchReference runs the detector and its oracle on every
// release of the default portfolio (identity included) of generated
// 16-user × 6-day cities, seeds 1 to 3, at the attacker's 200 m and the
// wide 500 m radius: the POIs must be identical to the bit.
func TestStayPointsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and protects three 16-user cities")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		raw, city, err := mobgen.Generate(mobgen.Config{Seed: seed, Users: 16, Days: 6})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range portfolio(t, city.Center) {
			rel, err := lppm.ProtectDatasetContext(context.Background(), m, raw, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, radius := range []float64{200, 500} {
				sp, err := NewStayPoints(StayPointConfig{MaxDistance: radius})
				if err != nil {
					t.Fatal(err)
				}
				found := 0
				for i, tr := range rel.Trajectories {
					got, want := sp.Extract(tr), sp.refExtract(tr)
					if !samePOIs(got, want) {
						t.Fatalf("seed %d, %s, %g m, trajectory %d: Extract = %+v, want %+v",
							seed, m.Name(), radius, i, got, want)
					}
					found += len(got)
				}
				if m.Name() == "identity" && found == 0 {
					t.Errorf("seed %d, %g m: no POI on the raw data", seed, radius)
				}
			}
		}
	}
}

// TestStayPointsMatchReferenceOnOddInput covers what generated cities never
// hold: positions at the poles and across the equator, NaN and infinite
// coordinates, latitudes past ±90°, and fixes spaced exactly at the radius.
func TestStayPointsMatchReferenceOnOddInput(t *testing.T) {
	line := func(start geo.Point, dLat, dLon float64, n int) *trace.Trajectory {
		tr := &trace.Trajectory{User: "u"}
		for i := range n {
			tr.Records = append(tr.Records, trace.Record{
				Time: trace.InstantOf(t0.Add(time.Duration(i) * time.Minute)),
				Pos:  geo.Point{Lat: start.Lat + float64(i)*dLat, Lon: start.Lon + float64(i)*dLon},
			})
		}
		return tr
	}
	nan := math.NaN()
	trs := map[string]*trace.Trajectory{
		"north pole":     line(geo.Point{Lat: 89.999, Lon: 0}, 0.00001, 3, 60),
		"south pole":     line(geo.Point{Lat: -90, Lon: -170}, 0, 7, 40),
		"equator":        line(geo.Point{Lat: -0.0005, Lon: 179.99}, 0.00002, 0.0001, 60),
		"past 90":        line(geo.Point{Lat: 89.9995, Lon: 0}, 0.00002, 0.0001, 60),
		"infinite lon":   line(geo.Point{Lat: 45, Lon: math.Inf(1)}, 0.0001, 0, 30),
		"huge lon":       line(geo.Point{Lat: 45, Lon: 1e300}, 0, 1e299, 30),
		"standing still": line(lyon, 0, 0, 30),
	}
	withNaN := line(lyon, 0.0001, 0.0001, 40)
	withNaN.Records[20].Pos.Lat = nan
	trs["a NaN latitude"] = withNaN
	withNaNLon := line(lyon, 0.0001, 0.0001, 40)
	withNaNLon.Records[7].Pos.Lon = nan
	trs["a NaN longitude"] = withNaNLon
	// Fixes spaced so that the anchor-to-fix distances cross the radius
	// a few ulps at a time.
	edge := &trace.Trajectory{User: "u"}
	for i := range 60 {
		q := geo.Point{Lat: lyon.Lat, Lon: lyon.Lon + float64(i)*1e-4}
		if i%2 == 1 {
			q.Lat += 1e-4
		}
		edge.Records = append(edge.Records, trace.Record{Time: trace.InstantOf(t0.Add(time.Duration(i) * time.Minute)), Pos: q})
	}
	trs["spaced at the radius"] = edge
	edgeRadius := geo.Distance(edge.Records[0].Pos, edge.Records[20].Pos)

	radii := []float64{0, 1, 200, 500, edgeRadius, math.Nextafter(edgeRadius, 0), math.Inf(1), nan, -1, 1e-300}
	for name, tr := range trs {
		for _, radius := range radii {
			for _, dwell := range []time.Duration{0, 15 * time.Minute} {
				sp := &StayPoints{cfg: StayPointConfig{MaxDistance: radius, MinDuration: dwell}}
				if got, want := sp.Extract(tr), sp.refExtract(tr); !samePOIs(got, want) {
					t.Errorf("%s, radius %v, dwell %v: Extract = %+v, want %+v", name, radius, dwell, got, want)
				}
			}
		}
	}
}

// fuzzRadii and fuzzLats are what the fuzz input's header bytes pick from:
// the detector's radii and latitudes from pole to pole, with the values
// that must fall back to the plain distance.
var (
	fuzzRadii = []float64{200, 500, 1, 50, 5000, 0, -1, math.Inf(1), math.NaN(), 1e-300, 1e300}
	fuzzLats  = []float64{45.764, 0, -33.9, 60, -75, 89.99, -90, 90, 95, math.NaN(), math.Inf(-1)}
)

// decodeStayTrajectory reads the radius, the base latitude, the minimum
// dwell in minutes and a coordinate scale from the first four bytes, then
// one fix per 5 bytes: a minute step, then two little-endian int16 offsets
// north and east, in steps of the scale. An offset of -32768 north or east
// stands for a NaN coordinate.
func decodeStayTrajectory(data []byte) (*StayPoints, *trace.Trajectory) {
	if len(data) < 4 {
		return &StayPoints{cfg: StayPointConfig{}.withDefaults()}, &trace.Trajectory{User: "u"}
	}
	cfg := StayPointConfig{
		MaxDistance: fuzzRadii[int(data[0])%len(fuzzRadii)],
		MinDuration: time.Duration(data[2]) * time.Minute,
	}
	base := geo.Point{Lat: fuzzLats[int(data[1])%len(fuzzLats)], Lon: 4.8357}
	scale := 1e-7 * math.Pow(4, float64(data[3]%12)) // degrees
	tr := &trace.Trajectory{User: "u"}
	ts := t0
	for rest := data[4:]; len(rest) >= 5; rest = rest[5:] {
		ts = ts.Add(time.Duration(rest[0]) * time.Minute)
		dn := int16(binary.LittleEndian.Uint16(rest[1:]))
		de := int16(binary.LittleEndian.Uint16(rest[3:]))
		p := geo.Point{Lat: base.Lat + float64(dn)*scale, Lon: base.Lon + float64(de)*scale}
		if dn == math.MinInt16 {
			p.Lat = math.NaN()
		}
		if de == math.MinInt16 {
			p.Lon = math.NaN()
		}
		tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: p})
	}
	return &StayPoints{cfg: cfg}, tr
}

// FuzzStayPointsMatchReference holds the detector to its oracle on
// trajectories, radii and latitudes the bytes choose.
func FuzzStayPointsMatchReference(f *testing.F) {
	fix := func(step byte, dn, de int16) []byte {
		b := []byte{step, 0, 0, 0, 0}
		binary.LittleEndian.PutUint16(b[1:], uint16(dn))
		binary.LittleEndian.PutUint16(b[3:], uint16(de))
		return b
	}
	for _, header := range [][]byte{{0, 0, 15, 8}, {1, 5, 15, 8}, {4, 7, 0, 11}, {0, 8, 5, 6}, {0, 9, 1, 8}} {
		seed := append([]byte(nil), header...)
		for i := range 40 {
			seed = append(seed, fix(1, int16(i%5), int16(i*i%17))...)
		}
		seed = append(seed, fix(3, math.MinInt16, 0)...)
		seed = append(seed, fix(1, 300, -300)...)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		sp, tr := decodeStayTrajectory(data)
		if got, want := sp.Extract(tr), sp.refExtract(tr); !samePOIs(got, want) {
			t.Errorf("radius %v, dwell %v: Extract = %+v, want %+v", sp.cfg.MaxDistance, sp.cfg.MinDuration, got, want)
		}
	})
}

var poiSink []POI

// BenchmarkStayPoints runs the attacker's detector over a raw 16-user ×
// 6-day city and over its smoothing(eps=100) and geoind(eps=0.01) releases,
// as core's attack runs it on each candidate strategy.
func BenchmarkStayPoints(b *testing.B) {
	raw, _, err := mobgen.Generate(mobgen.Config{Seed: 1, Users: 16, Days: 6})
	if err != nil {
		b.Fatal(err)
	}
	smoothing, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		b.Fatal(err)
	}
	geoind, err := lppm.NewGeoInd(0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := NewStayPoints(StayPointConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []lppm.Mechanism{lppm.Identity{}, smoothing, geoind} {
		rel, err := lppm.ProtectDatasetContext(context.Background(), m, raw, 0)
		if err != nil {
			b.Fatal(err)
		}
		name := m.Name()
		if name == "identity" {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, tr := range rel.Trajectories {
					poiSink = sp.Extract(tr)
				}
			}
		})
	}
}
