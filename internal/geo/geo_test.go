package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Lyon city centre, used as the reference location across the test suite
// (the paper's authors are based in Lyon and Lille).
var lyon = Point{Lat: 45.7640, Lon: 4.8357}

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64 // metres
		tol  float64 // relative tolerance
	}{
		{"zero", lyon, lyon, 0, 0},
		{"lyon-paris", lyon, Point{Lat: 48.8566, Lon: 2.3522}, 391500, 0.01},
		{"lyon-lille", lyon, Point{Lat: 50.6292, Lon: 3.0573}, 558000, 0.01},
		{"equator-1deg-lon", Point{0, 0}, Point{0, 1}, 111195, 0.001},
		{"one-deg-lat", Point{45, 0}, Point{46, 0}, 111195, 0.001},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Haversine(tt.p, tt.q)
			if tt.want == 0 {
				if got != 0 {
					t.Fatalf("Haversine(%v, %v) = %v, want 0", tt.p, tt.q, got)
				}
				return
			}
			if rel := math.Abs(got-tt.want) / tt.want; rel > tt.tol {
				t.Errorf("Haversine(%v, %v) = %.0f, want %.0f (+/- %.1f%%)",
					tt.p, tt.q, got, tt.want, tt.tol*100)
			}
		})
	}
}

func TestDistanceMatchesHaversineAtCityScale(t *testing.T) {
	// Points within ~30 km of Lyon: the equirectangular approximation must
	// agree with haversine to better than 0.1%.
	offsets := []struct{ dx, dy float64 }{
		{100, 0}, {0, 100}, {-2500, 1200}, {15000, -8000}, {30000, 30000},
	}
	for _, off := range offsets {
		q := Translate(lyon, off.dx, off.dy)
		h := Haversine(lyon, q)
		d := Distance(lyon, q)
		if h == 0 {
			continue
		}
		if rel := math.Abs(h-d) / h; rel > 0.001 {
			t.Errorf("Distance vs Haversine for offset (%v,%v): %f vs %f (rel %e)",
				off.dx, off.dy, d, h, rel)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(dx1, dy1, dx2, dy2 float64) bool {
		p := Translate(lyon, math.Mod(dx1, 20000), math.Mod(dy1, 20000))
		q := Translate(lyon, math.Mod(dx2, 20000), math.Mod(dy2, 20000))
		return math.Abs(Distance(p, q)-Distance(q, p)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Translate(lyon, math.Mod(ax, 10000), math.Mod(ay, 10000))
		b := Translate(lyon, math.Mod(bx, 10000), math.Mod(by, 10000))
		c := Translate(lyon, math.Mod(cx, 10000), math.Mod(cy, 10000))
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	// Travelling dist metres at any bearing must land at exactly dist
	// (haversine) from the start.
	for _, bearing := range []float64{0, 45, 90, 135, 180, 225, 270, 315} {
		for _, dist := range []float64{10, 500, 2000, 50000} {
			q := Destination(lyon, bearing, dist)
			got := Haversine(lyon, q)
			if math.Abs(got-dist) > dist*1e-6+1e-6 {
				t.Errorf("Destination(%v, %v): distance = %f, want %f", bearing, dist, got, dist)
			}
		}
	}
}

func TestBearingCardinal(t *testing.T) {
	north := Destination(lyon, 0, 1000)
	if b := Bearing(lyon, north); math.Abs(b) > 0.01 && math.Abs(b-360) > 0.01 {
		t.Errorf("bearing to north = %v, want ~0", b)
	}
	east := Destination(lyon, 90, 1000)
	if b := Bearing(lyon, east); math.Abs(b-90) > 0.01 {
		t.Errorf("bearing to east = %v, want ~90", b)
	}
	south := Destination(lyon, 180, 1000)
	if b := Bearing(lyon, south); math.Abs(b-180) > 0.01 {
		t.Errorf("bearing to south = %v, want ~180", b)
	}
}

func TestLerpEndpointsAndMidpoint(t *testing.T) {
	q := Translate(lyon, 1000, 500)
	if got := Lerp(lyon, q, 0); got != lyon {
		t.Errorf("Lerp t=0 = %v, want %v", got, lyon)
	}
	if got := Lerp(lyon, q, 1); got != q {
		t.Errorf("Lerp t=1 = %v, want %v", got, q)
	}
	mid := Midpoint(lyon, q)
	dp := Distance(lyon, mid)
	dq := Distance(mid, q)
	if math.Abs(dp-dq) > 0.5 {
		t.Errorf("midpoint not equidistant: %v vs %v", dp, dq)
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("Centroid(nil) = %v, want zero point", got)
	}
	pts := []Point{
		Translate(lyon, -100, -100),
		Translate(lyon, 100, -100),
		Translate(lyon, 100, 100),
		Translate(lyon, -100, 100),
	}
	c := Centroid(pts)
	if d := Distance(c, lyon); d > 1 {
		t.Errorf("centroid %v is %f m from expected centre", c, d)
	}
}

func TestPointValid(t *testing.T) {
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, tt := range tests {
		if got := tt.p.Valid(); got != tt.want {
			t.Errorf("Valid(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(lyon)
	f := func(dx, dy float64) bool {
		dx = math.Mod(dx, 30000)
		dy = math.Mod(dy, 30000)
		p := pr.Inverse(XY{X: dx, Y: dy})
		back := pr.Forward(p)
		return math.Abs(back.X-dx) < 1e-6 && math.Abs(back.Y-dy) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectionDistancePreservation(t *testing.T) {
	pr := NewProjection(lyon)
	a := Translate(lyon, 1200, -800)
	b := Translate(lyon, -3000, 4000)
	planar := Dist(pr.Forward(a), pr.Forward(b))
	sphere := Haversine(a, b)
	if rel := math.Abs(planar-sphere) / sphere; rel > 0.002 {
		t.Errorf("planar distance %f vs haversine %f (rel %e)", planar, sphere, rel)
	}
}

func TestTranslateDistances(t *testing.T) {
	q := Translate(lyon, 300, 400) // 3-4-5 triangle: 500 m
	if d := Haversine(lyon, q); math.Abs(d-500) > 1 {
		t.Errorf("Translate(300,400) distance = %f, want 500", d)
	}
}

// withinRadii returns radii around d = Distance(p, q): d itself, its
// float neighbours, and relative steps from 1e-12 to 1e-3 either side —
// the radii at which the band's margins and its cosine bounds matter.
func withinRadii(d float64) []float64 {
	out := []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))}
	for _, rel := range []float64{1e-12, 1e-10, 1e-9, 1e-7, 1e-5, 1e-3} {
		out = append(out, d*(1-rel), d*(1+rel))
	}
	return out
}

// checkWithin holds b.Within to Distance <= d at every radius given.
func checkWithin(t *testing.T, b LatBand, p, q Point, radii ...float64) {
	t.Helper()
	for _, d := range radii {
		if got, want := b.Within(p, q, d), Distance(p, q) <= d; got != want {
			t.Fatalf("band %+v: Within(%v, %v, %v) = %v, Distance = %v",
				b, p, q, d, got, Distance(p, q))
		}
	}
}

// TestWithinMatchesDistance: on random city-scale pairs at latitudes from
// -80° to 80° — pairs along a meridian, along a parallel and in any
// direction — within trajectory-sized bands, Within answers exactly as
// Distance does at radii from a few ulps to 0.1% away from the pair's
// distance.
func TestWithinMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for range 200000 {
		lat := rng.Float64()*160 - 80
		p := Point{Lat: lat, Lon: rng.Float64()*360 - 180}
		dist := math.Exp(rng.Float64()*12 - 3) // 5 cm to 8 km
		var q Point
		switch rng.Intn(3) {
		case 0:
			q = Translate(p, 0, dist)
		case 1:
			q = Point{Lat: p.Lat, Lon: p.Lon + dist/111320}
		default:
			q = Translate(p, dist*(rng.Float64()*2-1), dist*(rng.Float64()*2-1))
		}
		spread := rng.Float64() * 0.2
		b := NewLatBand(min(p.Lat, q.Lat)-spread*rng.Float64(), max(p.Lat, q.Lat)+spread*rng.Float64())
		checkWithin(t, b, p, q, withinRadii(Distance(p, q))...)
	}
}

// TestWithinOddInput: poles, the antimeridian, bands that decide nothing,
// points outside their band, and non-finite or negative radii and
// coordinates.
func TestWithinOddInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bands := []LatBand{
		{}, NewLatBand(-90, 90), NewLatBand(89, 90), NewLatBand(-90, -89.5), NewLatBand(-1, 1),
		NewLatBand(45, 46), NewLatBand(46, 45), NewLatBand(nan, 45), NewLatBand(-95, 0), NewLatBand(0, inf),
	}
	points := []Point{
		{90, 0}, {90, 180}, {89.9999, -179.9999}, {-90, 0}, {-89.99999, 45}, {0, 180}, {0, -180},
		{45.5, 4.8}, {45.5001, 4.8002}, {46.5, 4.8}, {44.9, 4.8}, {95, 0}, {-95, 0},
		{nan, 0}, {0, nan}, {inf, 0}, {0, inf}, {45.5, -inf}, {45.5, 1e308}, {45.5, -1e308},
		{1e-300, 0}, {-1e-300, 5e-324},
	}
	for _, b := range bands {
		for _, p := range points {
			for _, q := range points {
				d := Distance(p, q)
				radii := append(withinRadii(d), 0, -1, nan, inf, -inf, 1e-320, 1e-160, 1e160, 1e300, 200, 500)
				checkWithin(t, b, p, q, radii...)
			}
		}
	}
}

// FuzzWithinMatchesDistance: Within is Distance <= d for arbitrary floats,
// with the band either given or spanning the pair and a third latitude.
func FuzzWithinMatchesDistance(f *testing.F) {
	f.Add(45.764, 4.8357, 45.765, 4.837, 45.7, 200.0)
	f.Add(89.999, 0.0, 90.0, 180.0, 89.0, 500.0)
	f.Add(-90.0, -170.0, -89.9, 10.0, -91.0, 1e4)
	f.Add(0.0, 179.999, -0.001, -179.999, 0.0, 250.0)
	f.Add(45.0, math.Inf(1), 45.0, 0.0, 44.0, 200.0)
	f.Add(math.NaN(), 0.0, 45.0, 0.0, 44.0, 200.0)
	f.Add(45.0, 4.0, 45.0, 4.0, 45.0, 0.0)
	f.Fuzz(func(t *testing.T, plat, plon, qlat, qlon, lat, d float64) {
		p, q := Point{plat, plon}, Point{qlat, qlon}
		checkWithin(t, NewLatBand(min(plat, qlat, lat), max(plat, qlat, lat)), p, q, d)
		checkWithin(t, NewLatBand(min(lat, plat), max(lat, plat)), p, q, d)
		checkWithin(t, NewLatBand(min(plat, qlat), max(plat, qlat)), p, q, withinRadii(Distance(p, q))...)
	})
}
