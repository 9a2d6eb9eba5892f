package lppm

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

var (
	lyon = geo.Point{Lat: 45.7640, Lon: 4.8357}
	t0   = time.Date(2014, 12, 8, 8, 0, 0, 0, time.UTC)
)

// walk builds an eastbound constant-speed trajectory.
func walk(user string, n int, vMS float64, step time.Duration) *trace.Trajectory {
	tr := &trace.Trajectory{User: user}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time: trace.InstantOf(t0.Add(time.Duration(i) * step)),
			Pos:  geo.Translate(lyon, vMS*step.Seconds()*float64(i), 0),
		})
	}
	return tr
}

// protectOne runs m on one trajectory into a fresh slice.
func protectOne(m Mechanism, tr *trace.Trajectory) (*trace.Trajectory, error) {
	recs, err := m.Protect(nil, tr)
	if err != nil {
		return nil, err
	}
	return &trace.Trajectory{User: tr.User, Records: recs}, nil
}

func TestIdentity(t *testing.T) {
	tr := walk("alice", 10, 1, time.Minute)
	out, err := protectOne(Identity{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != tr.Len() {
		t.Fatalf("identity changed length: %d vs %d", out.Len(), tr.Len())
	}
	for i := range out.Records {
		if out.Records[i] != tr.Records[i] {
			t.Fatalf("identity changed record %d", i)
		}
	}
	// Must be a copy, not an alias.
	out.Records[0].Pos = geo.Point{}
	if tr.Records[0].Pos == (geo.Point{}) {
		t.Error("identity aliases input storage")
	}
}

func TestGeoIndValidation(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewGeoInd(eps, 1); err == nil {
			t.Errorf("NewGeoInd(%v) should fail", eps)
		}
	}
}

func TestGeoIndMeanDisplacement(t *testing.T) {
	// The planar Laplace displacement has mean 2/eps.
	const eps = 0.01 // => mean 200 m
	g, err := NewGeoInd(eps, 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := walk("alice", 4000, 1, time.Second)
	out, err := protectOne(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range out.Records {
		sum += geo.Distance(tr.Records[i].Pos, out.Records[i].Pos)
	}
	mean := sum / float64(out.Len())
	if math.Abs(mean-200) > 15 {
		t.Errorf("mean displacement = %f, want ~200", mean)
	}
}

func TestGeoIndDeterministicPerTrajectory(t *testing.T) {
	g, err := NewGeoInd(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := walk("alice", 50, 1, time.Minute)
	a, err := protectOne(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := protectOne(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same trajectory, same seed: outputs differ")
		}
	}
	// Different users get different noise.
	tr2 := walk("bob", 50, 1, time.Minute)
	c, err := protectOne(g, tr2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range c.Records {
		da := geo.Distance(a.Records[i].Pos, tr.Records[i].Pos)
		db := geo.Distance(c.Records[i].Pos, tr2.Records[i].Pos)
		if math.Abs(da-db) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Error("different users received identical noise streams")
	}
}

func TestGaussianNoise(t *testing.T) {
	if _, err := NewGaussianNoise(0, 1); err == nil {
		t.Error("sigma 0 should fail")
	}
	g, err := NewGaussianNoise(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := walk("alice", 3000, 1, time.Second)
	out, err := protectOne(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Mean displacement of 2D Gaussian with per-axis sigma is
	// sigma*sqrt(pi/2) ~ 1.2533*sigma.
	var sum float64
	for i := range out.Records {
		sum += geo.Distance(tr.Records[i].Pos, out.Records[i].Pos)
	}
	mean := sum / float64(out.Len())
	want := 50 * math.Sqrt(math.Pi/2)
	if math.Abs(mean-want) > 4 {
		t.Errorf("mean displacement = %f, want ~%f", mean, want)
	}
}

func TestCloaking(t *testing.T) {
	if _, err := NewCloaking(0, lyon); err == nil {
		t.Error("cell 0 should fail")
	}
	c, err := NewCloaking(400, lyon)
	if err != nil {
		t.Fatal(err)
	}
	tr := walk("alice", 100, 2, time.Minute)
	out, err := protectOne(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Every output position is at most half a cell diagonal from input.
	limit := 400 * math.Sqrt2 / 2 * 1.01
	distinct := map[geo.Point]bool{}
	for i := range out.Records {
		if d := geo.Distance(tr.Records[i].Pos, out.Records[i].Pos); d > limit {
			t.Fatalf("record %d moved %f m (> %f)", i, d, limit)
		}
		distinct[out.Records[i].Pos] = true
	}
	if len(distinct) >= out.Len() {
		t.Error("cloaking did not coarsen positions")
	}
	// Same input point always snaps identically (no randomness).
	out2, err := protectOne(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Records {
		if out.Records[i] != out2.Records[i] {
			t.Fatal("cloaking is not deterministic")
		}
	}
}

func TestDownsample(t *testing.T) {
	if _, err := NewDownsample(0); err == nil {
		t.Error("factor 0 should fail")
	}
	d, err := NewDownsample(3)
	if err != nil {
		t.Fatal(err)
	}
	tr := walk("alice", 10, 1, time.Minute)
	out, err := protectOne(d, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // indices 0,3,6,9
		t.Fatalf("downsampled to %d records, want 4", out.Len())
	}
	if out.Records[1] != tr.Records[3] {
		t.Error("downsample kept wrong records")
	}
}

func TestCompose(t *testing.T) {
	if _, err := NewCompose(); err == nil {
		t.Error("empty compose should fail")
	}
	ds, err := NewDownsample(2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCloaking(400, lyon)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompose(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	tr := walk("alice", 10, 2, time.Minute)
	out, err := protectOne(comp, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 5 {
		t.Errorf("composed output has %d records, want 5", out.Len())
	}
	if comp.Name() == "" {
		t.Error("compose name empty")
	}
}

func TestTimeShift(t *testing.T) {
	s := &TimeShift{Offset: time.Hour}
	tr := walk("alice", 3, 1, time.Minute)
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Records {
		if got := out.Records[i].Time.Sub(tr.Records[i].Time); got != time.Hour {
			t.Fatalf("record %d shifted by %v", i, got)
		}
	}
}

func TestProtectDataset(t *testing.T) {
	d := trace.NewDataset()
	d.Add(walk("alice", 10, 1, time.Minute))
	d.Add(&trace.Trajectory{User: "empty"}) // suppressed by smoothing
	sm, err := NewSpeedSmoothing(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ProtectDatasetContext(context.Background(), sm, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("protected dataset has %d trajectories, want 1 (empty suppressed)", out.Len())
	}
}

func TestFromSpec(t *testing.T) {
	good := []struct {
		spec string
		name string
	}{
		{"identity", "identity"},
		{"geoind:eps=0.02", "geoind(eps=0.02)"},
		{"gaussian:sigma=75,seed=9", "gaussian(sigma=75)"},
		{"cloaking:cell=250,lat=45.7,lon=4.8", "cloaking(cell=250)"},
		{"downsample:k=5", "downsample(k=5)"},
		{"simplify:tol=80", "simplify(tol=80)"},
		{"smoothing:eps=120,trim=1", "smoothing(eps=120,trim=1)"},
		{"smoothing", "smoothing(eps=100,trim=2)"},
	}
	for _, tt := range good {
		m, err := FromSpec(tt.spec)
		if err != nil {
			t.Errorf("FromSpec(%q): %v", tt.spec, err)
			continue
		}
		if m.Name() != tt.name {
			t.Errorf("FromSpec(%q).Name() = %q, want %q", tt.spec, m.Name(), tt.name)
		}
	}
	bad := []string{
		"", "unknown", "geoind:eps=zero", "geoind:eps", "downsample:k=x",
		"smoothing:eps=-5", "gaussian:sigma=-1", "cloaking:cell=0",
		"simplify:tol=-2",
		// unknown keys, repeated keys and signed seeds
		"geoind:epsilon=0.002", "identity:eps=1", "smoothing:eps=100,tirm=1",
		"cloaking:cell=400,lng=4.8", "smoothing:eps=50,eps=200",
		"geoind:eps=0.01,seed=1,seed=2", "geoind:seed=-1", "gaussian:seed=1.5",
	}
	for _, spec := range bad {
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec(%q) should fail", spec)
		}
	}
}

// TestSincosMatchesSinAndCos: GeoInd draws its noise angle's sine and
// cosine with one math.Sincos call, which must give the bits separate
// math.Sin and math.Cos calls gave, or every geoind release would change.
// Angles are drawn as GeoInd draws them, over [0, 2π), plus the ends and
// the multiples of π/4 where the argument reduction switches octant.
func TestSincosMatchesSinAndCos(t *testing.T) {
	check := func(theta float64) {
		sin, cos := math.Sincos(theta)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(theta)) ||
			math.Float64bits(cos) != math.Float64bits(math.Cos(theta)) {
			t.Fatalf("Sincos(%v) = (%v, %v), want (%v, %v)", theta, sin, cos, math.Sin(theta), math.Cos(theta))
		}
	}
	for k := range 9 {
		x := float64(k) * math.Pi / 4
		check(x)
		check(math.Nextafter(x, 0))
		check(math.Nextafter(x, 7))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 2_000_000 {
		check(rng.Float64() * 2 * math.Pi)
	}
}
