package lppm

import (
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/poi"
)

func TestSimplifyValidation(t *testing.T) {
	for _, tol := range []float64{0, -10} {
		if _, err := NewSimplify(tol); err == nil {
			t.Errorf("NewSimplify(%v) should fail", tol)
		}
	}
}

func TestSimplifyReducesRecordsButKeepsPath(t *testing.T) {
	tr, home, work := dayWithStops()
	s, err := NewSimplify(100)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() >= tr.Len()/4 {
		t.Errorf("simplified to %d of %d records; expected heavy reduction", out.Len(), tr.Len())
	}
	// Kept records are a subset of the originals (no displacement).
	orig := make(map[geo.Point]bool, tr.Len())
	for _, r := range tr.Records {
		orig[r.Pos] = true
	}
	for _, r := range out.Records {
		if !orig[r.Pos] {
			t.Fatalf("simplify displaced a point: %v", r.Pos)
		}
	}
	// Endpoints (home) survive.
	if out.Records[0].Pos != tr.Records[0].Pos {
		t.Error("first record changed")
	}
	_ = home
	_ = work
}

func TestSimplifyLeaksPresenceAtStops(t *testing.T) {
	// The reason generalisation is a compression baseline and not a privacy
	// mechanism: the kept corner points sit exactly AT the sensitive
	// places, so presence there is still released verbatim (on clean data
	// the dwell duration collapses, but the visit itself never does).
	tr, home, work := dayWithStops()
	s, err := NewSimplify(100)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	atHome, atWork := false, false
	for _, r := range out.Records {
		if geo.Distance(r.Pos, home) < 50 {
			atHome = true
		}
		if geo.Distance(r.Pos, work) < 50 {
			atWork = true
		}
	}
	if !atHome || !atWork {
		t.Errorf("simplified release misses presence (home=%v work=%v); corners must survive",
			atHome, atWork)
	}
}

func TestSimplifyOnNoisyDataKeepsDwellDetectable(t *testing.T) {
	// With GPS noise (the realistic case), dwells produce scattered fixes
	// whose envelope exceeds a tight tolerance, so the stay-point attack
	// still fires on the simplified release — generalisation is not a
	// dwell defence.
	tr, home, _ := dayWithStops()
	noise, err := NewGaussianNoise(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := protectOne(noise, tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimplify(20) // tolerance below the noise envelope
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, noisy)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := poi.NewStayPoints(poi.StayPointConfig{MaxDistance: 200, MinDuration: 15 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	pois := poi.Merge(sp.Extract(out), 250)
	foundHome := false
	for _, p := range pois {
		if geo.Distance(p.Center, home) < 250 {
			foundHome = true
		}
	}
	if !foundHome {
		t.Error("stay-point attack lost the home dwell on noisy simplified data")
	}
}

func TestSimplifyEmptyInput(t *testing.T) {
	s, err := NewSimplify(50)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(s, walk("empty", 0, 1, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("empty input produced %d records", out.Len())
	}
}
