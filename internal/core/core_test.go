package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

var lyon = geo.Point{Lat: 45.7640, Lon: 4.8357}

var fixtureDS *trace.Dataset

func fixture(t *testing.T) *trace.Dataset {
	t.Helper()
	if fixtureDS == nil {
		ds, _, err := mobgen.Generate(mobgen.Config{Seed: 21, Users: 10, Days: 5})
		if err != nil {
			t.Fatal(err)
		}
		fixtureDS = ds
	}
	return fixtureDS
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{MaxPOIExposure: 2}, lyon); err == nil {
		t.Error("MaxPOIExposure > 1 should fail")
	}
	if _, err := New(Config{MaxPOIExposure: -0.5}, lyon); err == nil {
		t.Error("negative MaxPOIExposure should fail")
	}
	if _, err := New(Config{Strategies: []lppm.Mechanism{}}, lyon); err == nil {
		t.Error("empty explicit portfolio should fail")
	}
	m, err := New(Config{}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Strategies()) < 5 {
		t.Errorf("default portfolio has %d strategies", len(m.Strategies()))
	}
}

func TestObjectiveString(t *testing.T) {
	if ObjectiveCrowdedPlaces.String() != "crowded-places" ||
		ObjectiveTraffic.String() != "traffic" ||
		ObjectiveDistortion.String() != "distortion" {
		t.Error("objective names wrong")
	}
	if !strings.Contains(Objective(99).String(), "99") {
		t.Error("unknown objective should embed its value")
	}
}

func TestReferencePOIs(t *testing.T) {
	m, err := New(Config{}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := m.ReferencePOIs(fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 10 {
		t.Errorf("reference POIs for %d users, want 10", len(refs))
	}
	for user, pois := range refs {
		if len(pois) < 2 {
			t.Errorf("user %s has only %d reference POIs", user, len(pois))
		}
	}
}

func TestEvaluatePortfolio(t *testing.T) {
	m, err := New(Config{}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := m.EvaluateContext(context.Background(), fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != len(m.Strategies()) {
		t.Fatalf("%d evaluations for %d strategies", len(evals), len(m.Strategies()))
	}
	byName := map[string]Evaluation{}
	for _, ev := range evals {
		byName[ev.Strategy] = ev
		if ev.Utility < 0 || ev.Utility > 1 {
			t.Errorf("%s: utility %v out of range", ev.Strategy, ev.Utility)
		}
	}
	// Smoothing must meet the default floor and keep hotspot utility high;
	// mild geo-ind must violate the floor (claim C1).
	sm := byName["smoothing(eps=100,trim=2)"]
	if !sm.MeetsFloor {
		t.Errorf("smoothing should meet the floor, f1=%.2f", sm.Privacy.F1())
	}
	if sm.HotspotOverlap < 0.5 {
		t.Errorf("smoothing hotspot overlap = %.2f, want >= 0.5", sm.HotspotOverlap)
	}
	gi := byName["geoind(eps=0.01)"]
	if gi.MeetsFloor {
		t.Errorf("mild geo-ind should violate the floor, f1=%.2f", gi.Privacy.F1())
	}
}

func TestPublishPicksSmoothingForCrowdedPlaces(t *testing.T) {
	m, err := New(Config{PseudonymKey: []byte("k1")}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	release, sel, err := m.PublishContext(context.Background(), fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sel.Chosen, "smoothing") {
		t.Errorf("chosen = %s, want a smoothing strategy", sel.Chosen)
	}
	if release.Len() == 0 {
		t.Fatal("empty release")
	}
	// Pseudonymised: no raw user ids.
	for _, tr := range release.Trajectories {
		if strings.HasPrefix(tr.User, "user-") {
			t.Fatalf("release leaks raw user id %q", tr.User)
		}
	}
}

func TestPublishObjectiveChangesChoice(t *testing.T) {
	// With a relaxed floor and the distortion objective, a low-noise
	// mechanism should win over smoothing at coarse grains.
	ds := fixture(t)
	giStrong, err := lppm.NewGeoInd(0.002, 1) // mean 1 km noise
	if err != nil {
		t.Fatal(err)
	}
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Strategies:     []lppm.Mechanism{giStrong, sm},
		Objective:      ObjectiveCrowdedPlaces,
		MaxPOIExposure: 0.5,
	}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	_, sel, err := m.PublishContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sel.Chosen, "smoothing") {
		t.Errorf("crowded-places objective chose %s, want smoothing", sel.Chosen)
	}
}

func TestPublishNoStrategyMeetsFloor(t *testing.T) {
	// Identity alone can never meet a floor below 1.
	m, err := New(Config{
		Strategies:     []lppm.Mechanism{lppm.Identity{}},
		MaxPOIExposure: 0.1,
	}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	_, sel, err := m.PublishContext(context.Background(), fixture(t))
	if !errors.Is(err, ErrNoStrategy) {
		t.Fatalf("err = %v, want ErrNoStrategy", err)
	}
	if sel == nil || sel.Chosen != "" {
		t.Error("selection should be returned with empty Chosen")
	}
}

func TestPublishEmptyDataset(t *testing.T) {
	m, err := New(Config{}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PublishContext(context.Background(), trace.NewDataset()); err == nil {
		t.Error("publishing an empty dataset should fail")
	}
}

func TestTrafficObjective(t *testing.T) {
	m, err := New(Config{Objective: ObjectiveTraffic}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := m.EvaluateContext(context.Background(), fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	anyPositive := false
	for _, ev := range evals {
		if ev.TrafficUtility > 0 {
			anyPositive = true
		}
		if ev.Utility != ev.TrafficUtility {
			t.Errorf("%s: objective utility %v != traffic utility %v",
				ev.Strategy, ev.Utility, ev.TrafficUtility)
		}
	}
	if !anyPositive {
		t.Error("no strategy has positive traffic utility")
	}
}
