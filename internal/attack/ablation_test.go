package attack

import (
	"context"
	"testing"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/poi"
)

// TestAttackerExtractorAblation compares the two attacker toolchains of
// DESIGN.md §5 (stay-point detection vs DJ-Cluster) on raw data: both must
// recover essentially all true POIs, validating that E1's conclusions do
// not hinge on the extractor choice.
func TestAttackerExtractorAblation(t *testing.T) {
	ds, city := fixture(t)
	truth := truthOf(city)

	sp, err := poi.NewStayPoints(poi.StayPointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dj, err := poi.NewDJCluster(poi.DJClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, extractor := range map[string]poi.Extractor{"staypoints": sp, "djcluster": dj} {
		a, err := NewPOIRecovery(extractor, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := a.Run(truth, ds)
		if res.Recall() < 0.8 {
			t.Errorf("%s raw recall = %.2f, want >= 0.8: %v", name, res.Recall(), res)
		}
	}
}

// TestLinkageSurvivesSmoothing documents the E3 negative result as an
// invariant: smoothing does NOT defend against POI-profile linkage because
// the path itself identifies its owner.
func TestLinkageSurvivesSmoothing(t *testing.T) {
	ds, _ := fixture(t)
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := lppm.ProtectDatasetContext(context.Background(), sm, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := poi.NewStayPoints(poi.StayPointConfig{MaxDistance: 500})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLinker(wide, 0)
	if err != nil {
		t.Fatal(err)
	}
	profiles := l.BuildProfiles(ds)
	res := l.Run(profiles, prot, func(p string) string { return p })
	if res.Accuracy() < 0.7 {
		t.Errorf("linkage under smoothing = %.2f; expected to remain high (documented limitation)",
			res.Accuracy())
	}
}

// TestRecoveryMatchRadiusMonotone: enlarging the match radius can only
// increase recall — a sanity invariant for the experiment parameters.
func TestRecoveryMatchRadiusMonotone(t *testing.T) {
	ds, city := fixture(t)
	truth := truthOf(city)
	gi, err := lppm.NewGeoInd(0.005, 3)
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
	prev := -1.0
	for _, radius := range []float64{100, 250, 500, 1000} {
		a, err := NewPOIRecovery(wide, 250, radius)
		if err != nil {
			t.Fatal(err)
		}
		rec := a.Run(truth, prot).Recall()
		if rec < prev {
			t.Errorf("recall decreased when widening match radius to %v: %v -> %v", radius, prev, rec)
		}
		prev = rec
	}
}

// TestLinkerProfilesContainTruePOIs ties the learned profiles back to the
// generator's ground truth.
func TestLinkerProfilesContainTruePOIs(t *testing.T) {
	ds, city := fixture(t)
	sp, err := poi.NewStayPoints(poi.StayPointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLinker(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	profiles := l.BuildProfiles(ds)
	for _, res := range city.Residents {
		places := profiles[res.User]
		if len(places) == 0 {
			t.Fatalf("no profile for %s", res.User)
		}
		foundHome := false
		for _, p := range places {
			if geo.Distance(p.Pos, res.Home) < 250 {
				foundHome = true
				break
			}
		}
		if !foundHome {
			t.Errorf("profile of %s misses their home", res.User)
		}
	}
}
