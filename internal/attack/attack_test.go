package attack

import (
	"context"
	"math"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/mobgen"
	"apisense/internal/poi"
	"apisense/internal/trace"
)

func stayPoints(t *testing.T) poi.Extractor {
	t.Helper()
	sp, err := poi.NewStayPoints(poi.StayPointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// cityFixture generates a small city once per test binary.
var cityFixture struct {
	ds   *trace.Dataset
	city *mobgen.City
}

func fixture(t *testing.T) (*trace.Dataset, *mobgen.City) {
	t.Helper()
	if cityFixture.ds == nil {
		ds, city, err := mobgen.Generate(mobgen.Config{Seed: 11, Users: 12, Days: 10})
		if err != nil {
			t.Fatal(err)
		}
		cityFixture.ds = ds
		cityFixture.city = city
	}
	return cityFixture.ds, cityFixture.city
}

func truthOf(city *mobgen.City) map[string][]geo.Point {
	truth := make(map[string][]geo.Point, len(city.Residents))
	for _, r := range city.Residents {
		truth[r.User] = r.TruePOIs()
	}
	return truth
}

func TestNewPOIRecoveryValidation(t *testing.T) {
	if _, err := NewPOIRecovery(nil, 0, 0); err == nil {
		t.Error("nil extractor should fail")
	}
	if _, err := NewPOIRecovery(stayPoints(t), -1, 0); err == nil {
		t.Error("negative radius should fail")
	}
	a, err := NewPOIRecovery(stayPoints(t), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.MergeRadius != 250 || a.MatchRadius != 250 {
		t.Errorf("defaults = %v/%v, want 250/250", a.MergeRadius, a.MatchRadius)
	}
}

func TestRecoveryOnRawData(t *testing.T) {
	ds, city := fixture(t)
	a, err := NewPOIRecovery(stayPoints(t), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := a.Run(truthOf(city), ds)
	if res.Recall() < 0.8 {
		t.Errorf("raw recall = %.2f, want >= 0.8: %v", res.Recall(), res)
	}
	if res.Precision() < 0.5 {
		t.Errorf("raw precision = %.2f, want >= 0.5: %v", res.Precision(), res)
	}
	if res.F1() <= 0 || res.F1() > 1 {
		t.Errorf("f1 out of range: %v", res.F1())
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestRecoveryUnderSmoothingCollapsesPrecision(t *testing.T) {
	ds, city := fixture(t)
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := lppm.ProtectDatasetContext(context.Background(), sm, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPOIRecovery(stayPoints(t), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := a.Run(truthOf(city), ds)
	smooth := a.Run(truthOf(city), prot)
	if smooth.Precision() > raw.Precision()*0.6 {
		t.Errorf("smoothing precision %.2f should be far below raw %.2f",
			smooth.Precision(), raw.Precision())
	}
	if smooth.F1() > raw.F1()*0.7 {
		t.Errorf("smoothing F1 %.2f should collapse vs raw %.2f", smooth.F1(), raw.F1())
	}
}

func TestRecoveryUnderGeoIndSurvives(t *testing.T) {
	// Claim C1: geo-indistinguishability at a realistic epsilon leaves
	// most POIs recoverable, because long dwells average the noise out.
	// The attacker widens the stay-point radius to the noise scale —
	// exactly the adaptation used in the authors' companion study [3].
	ds, city := fixture(t)
	gi, err := lppm.NewGeoInd(0.01, 5) // mean noise 2/eps = 200 m
	if err != nil {
		t.Fatal(err)
	}
	prot, err := lppm.ProtectDatasetContext(context.Background(), gi, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := poi.NewStayPoints(poi.StayPointConfig{MaxDistance: 500})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPOIRecovery(wide, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := a.Run(truthOf(city), prot)
	if res.Recall() < 0.6 {
		t.Errorf("geoind recall = %.2f, want >= 0.6 (paper claim C1): %v", res.Recall(), res)
	}
}

func TestRecoveryEmptyInputs(t *testing.T) {
	a, err := NewPOIRecovery(stayPoints(t), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := a.Run(nil, trace.NewDataset())
	if res.Recall() != 0 || res.Precision() != 0 || res.F1() != 0 {
		t.Errorf("empty attack should score zero: %+v", res)
	}
}

func TestLinkerValidation(t *testing.T) {
	if _, err := NewLinker(nil, 0); err == nil {
		t.Error("nil extractor should fail")
	}
	if _, err := NewLinker(stayPoints(t), -1); err == nil {
		t.Error("negative radius should fail")
	}
}

func TestLinkerOnRawSplitsIsAccurate(t *testing.T) {
	ds, _ := fixture(t)
	// Background: first week. Test: the remaining weekdays, pseudonymised.
	cut := time.Date(2014, 12, 15, 0, 0, 0, 0, time.UTC)
	background := ds.Filter(func(tr *trace.Trajectory) bool {
		start, err := tr.Start()
		return err == nil && start.Before(cut)
	})
	test := ds.Filter(func(tr *trace.Trajectory) bool {
		start, err := tr.Start()
		return err == nil && !start.Before(cut)
	})
	pseud, err := trace.NewPseudonymizer([]byte("release-key"))
	if err != nil {
		t.Fatal(err)
	}
	testAnon := pseud.Apply(test)
	// Invert pseudonyms for scoring.
	reverse := make(map[string]string)
	for _, u := range ds.Users() {
		reverse[pseud.Pseudonym(u)] = u
	}

	l, err := NewLinker(stayPoints(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	profiles := l.BuildProfiles(background)
	res := l.Run(profiles, testAnon, func(p string) string { return reverse[p] })
	if res.Users == 0 {
		t.Fatal("no users attacked")
	}
	if res.Accuracy() < 0.8 {
		t.Errorf("raw linkage accuracy = %.2f, want >= 0.8: %v", res.Accuracy(), res)
	}
	if res.AccuracyTop3() < res.Accuracy() {
		t.Error("top-3 accuracy below top-1")
	}
	if res.Baseline <= 0 || res.Baseline >= 0.5 {
		t.Errorf("baseline = %v", res.Baseline)
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestLinkerEmptyRelease(t *testing.T) {
	l, err := NewLinker(stayPoints(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := l.Run(map[string][]Place{"a": ProfileFromPoints([]geo.Point{{Lat: 1, Lon: 1}})},
		trace.NewDataset(), func(p string) string { return p })
	if res.Users != 0 || res.Accuracy() != 0 {
		t.Errorf("empty release should attack nobody: %+v", res)
	}
}

func TestProfileDistance(t *testing.T) {
	a := geo.Point{Lat: 45.76, Lon: 4.83}
	b := geo.Translate(a, 1000, 0)
	if d := profileDistance(nil, []geo.Point{a}); !math.IsInf(d, 1) {
		t.Errorf("empty profile distance = %v, want +Inf", d)
	}
	got := profileDistance(ProfileFromPoints([]geo.Point{a, b}), []geo.Point{a})
	// a matches at 0, b at 1000 => equal-weight average 500.
	if got < 490 || got > 510 {
		t.Errorf("profileDistance = %f, want ~500", got)
	}
	// Weighting shifts the score towards the heavy place.
	heavyA := []Place{{Pos: a, Weight: 9}, {Pos: b, Weight: 1}}
	if got := profileDistance(heavyA, []geo.Point{a}); got > 150 {
		t.Errorf("weighted profileDistance = %f, want ~100", got)
	}
}
