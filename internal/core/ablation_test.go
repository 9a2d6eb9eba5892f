package core

import (
	"context"
	"testing"

	"apisense/internal/lppm"
)

// TestAttackRadiusSensitivity: the simulated attacker's stay-point radius
// is a threat-model parameter; a naive 200 m attacker under-estimates the
// exposure of noise mechanisms, which is exactly why the default is the
// noise-adaptive 500 m (DESIGN.md §5).
func TestAttackRadiusSensitivity(t *testing.T) {
	ds := fixture(t)
	gi, err := lppm.NewGeoInd(0.01, 1) // 200 m mean noise
	if err != nil {
		t.Fatal(err)
	}
	exposure := func(radius float64) float64 {
		m, err := New(Config{
			Strategies:   []lppm.Mechanism{gi},
			AttackRadius: radius,
		}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		evals, err := m.EvaluateContext(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		return evals[0].Privacy.Recall()
	}
	narrow := exposure(200)
	wide := exposure(500)
	if wide <= narrow {
		t.Errorf("adaptive attacker (recall %.2f) should beat naive one (%.2f) against noise",
			wide, narrow)
	}
	if wide < 0.6 {
		t.Errorf("adaptive attacker recall = %.2f, want >= 0.6 (claim C1 regime)", wide)
	}
}

// TestPublishIsDeterministic: same dataset, same config, same release.
func TestPublishIsDeterministic(t *testing.T) {
	ds := fixture(t)
	run := func() (string, int) {
		m, err := New(Config{PseudonymKey: []byte("det")}, lyon)
		if err != nil {
			t.Fatal(err)
		}
		release, sel, err := m.PublishContext(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		return sel.Chosen, release.NumRecords()
	}
	c1, n1 := run()
	c2, n2 := run()
	if c1 != c2 || n1 != n2 {
		t.Errorf("publish not deterministic: (%s, %d) vs (%s, %d)", c1, n1, c2, n2)
	}
}

// TestEvaluationReleasedCounts: suppression shows up in Released.
func TestEvaluationReleasedCounts(t *testing.T) {
	ds := fixture(t)
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Strategies: []lppm.Mechanism{sm, lppm.Identity{}}}, lyon)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := m.EvaluateContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evals {
		if ev.Released <= 0 || ev.Released > ds.Len() {
			t.Errorf("%s released %d of %d", ev.Strategy, ev.Released, ds.Len())
		}
	}
}
