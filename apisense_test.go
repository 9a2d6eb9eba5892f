package apisense

import (
	"context"
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does: generate, publish privately, attack, measure.
func TestFacadeEndToEnd(t *testing.T) {
	ds, city, err := GenerateMobility(MobilityConfig{Seed: 5, Users: 8, Days: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 8*4 {
		t.Fatalf("dataset has %d trajectories", ds.Len())
	}

	mw, err := NewPrivacyMiddleware(PrivacyConfig{PseudonymKey: []byte("release")}, city.Center)
	if err != nil {
		t.Fatal(err)
	}
	release, sel, err := mw.PublishContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Chosen == "" || release.Len() == 0 {
		t.Fatalf("selection = %+v, release = %d", sel.Chosen, release.Len())
	}

	// Attack the release through the facade.
	extractor, err := NewStayPoints(StayPointConfig{MaxDistance: 500})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewPOIRecovery(extractor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]([]Point){}
	pseud, err := NewPseudonymizer([]byte("release"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range city.Residents {
		truth[pseud.Pseudonym(r.User)] = r.TruePOIs()
	}
	res := rec.Run(truth, release)
	if res.F1() > 0.5 {
		t.Errorf("published release leaks POIs: %v", res)
	}

	// Utility through the facade.
	box, ok := ds.BBox()
	if !ok {
		t.Fatal("no bbox")
	}
	grid, err := NewGrid(box.Pad(500), 250)
	if err != nil {
		t.Fatal(err)
	}
	overlap := TopKOverlap(UserDensity(ds, grid), UserDensity(release, grid), 10)
	if overlap < 0.4 {
		t.Errorf("hotspot overlap = %.2f, want useful release", overlap)
	}
}

// TestFacadeShardedPublish drives the sharded publication pipeline through
// the public facade, the way a scaled deployment would.
func TestFacadeShardedPublish(t *testing.T) {
	ds, city, err := GenerateMobility(MobilityConfig{Seed: 6, Users: 8, Days: 4})
	if err != nil {
		t.Fatal(err)
	}
	mw, err := NewPrivacyMiddleware(PrivacyConfig{PseudonymKey: []byte("release")}, city.Center)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := ShardPolicyFromSpec("user:buckets=4")
	if err != nil {
		t.Fatal(err)
	}
	shards, err := PartitionDataset(ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 2 {
		t.Fatalf("%d shards, want >= 2", len(shards))
	}
	release, sel, err := mw.PublishShardedContext(context.Background(), ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	if release.Len() == 0 || sel.Released != release.Len() {
		t.Fatalf("release %d trajectories, report %d", release.Len(), sel.Released)
	}
	if sel.WorstExposure > sel.Floor {
		t.Errorf("worst shard exposure %.3f above floor %.3f", sel.WorstExposure, sel.Floor)
	}
}

func TestFacadeMechanisms(t *testing.T) {
	m, err := MechanismFromSpec("smoothing:eps=100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(m.Name(), "smoothing") {
		t.Errorf("name = %q", m.Name())
	}
	ds, _, err := GenerateMobility(MobilityConfig{Seed: 2, Users: 2, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Protect(context.Background(), m, ds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("empty protected dataset")
	}
	if _, err := NewSpeedSmoothing(-1, 0); err == nil {
		t.Error("invalid epsilon should fail")
	}
	if _, err := NewGeoInd(0.01, 1); err != nil {
		t.Error(err)
	}
	if _, err := NewCloaking(400, Point{Lat: 45, Lon: 4}); err != nil {
		t.Error(err)
	}
}

func TestFacadeScript(t *testing.T) {
	in := NewScriptInterp()
	if err := in.RunSource("var x = 1 + 2;"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseScript("var broken = ;"); err == nil {
		t.Error("bad script should fail to parse")
	}
}
