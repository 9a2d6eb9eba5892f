package lppm

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// randomWalk builds a seeded random-walk trajectory for property tests.
func randomWalk(seed uint64, n int) *trace.Trajectory {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	tr := &trace.Trajectory{User: "walker"}
	pos := lyon
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time: trace.InstantOf(t0.Add(time.Duration(i) * time.Minute)),
			Pos:  pos,
		})
		pos = geo.Translate(pos, rng.NormFloat64()*80, rng.NormFloat64()*80)
	}
	return tr
}

// TestSmoothingUniformGapsProperty checks the defining invariant on random
// walks: released timestamps are uniformly spaced and consecutive points
// are never further apart than the resampling step.
func TestSmoothingUniformGapsProperty(t *testing.T) {
	s, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		tr := randomWalk(seed%1000, 200)
		out, err := protectOne(s, tr)
		if err != nil {
			return false
		}
		if out.Len() < 2 {
			return true // suppressed: nothing to check
		}
		gap := out.Records[1].Time.Sub(out.Records[0].Time)
		for i := 2; i < out.Len(); i++ {
			g := out.Records[i].Time.Sub(out.Records[i-1].Time)
			if d := g - gap; d < -time.Second || d > time.Second {
				return false
			}
		}
		for i := 1; i < out.Len(); i++ {
			if geo.Distance(out.Records[i-1].Pos, out.Records[i].Pos) > 100*1.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSmoothingOutputInsideInputSpan checks released timestamps never leave
// the original time window (property over random walks).
func TestSmoothingOutputInsideInputSpan(t *testing.T) {
	s, err := NewSpeedSmoothing(150, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		tr := randomWalk(seed%1000+7, 150)
		out, err := protectOne(s, tr)
		if err != nil || out.Len() == 0 {
			return err == nil
		}
		start := tr.Records[0].Time
		end := tr.Records[tr.Len()-1].Time
		return out.Records[0].Time >= start && out.Records[out.Len()-1].Time <= end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSmoothingTrimAblation quantifies the DESIGN.md §5 ablation: without
// endpoint trimming the first released point sits within one step of the
// origin (usually home); with trimming it is pushed away.
func TestSmoothingTrimAblation(t *testing.T) {
	tr, home, _ := dayWithStops()

	noTrim, err := NewSpeedSmoothing(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := NewSpeedSmoothing(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	outNo, err := protectOne(noTrim, tr)
	if err != nil {
		t.Fatal(err)
	}
	outTrim, err := protectOne(trimmed, tr)
	if err != nil {
		t.Fatal(err)
	}
	dNo := geo.Distance(outNo.Records[0].Pos, home)
	dTrim := geo.Distance(outTrim.Records[0].Pos, home)
	if dNo > 150 {
		t.Errorf("untrimmed first point is %f m from home, expected leak within ~100 m", dNo)
	}
	if dTrim < dNo+150 {
		t.Errorf("trimmed first point (%f m) should be well beyond untrimmed (%f m)", dTrim, dNo)
	}
	// Trimming costs exactly 2*trim released points.
	if outNo.Len()-outTrim.Len() != 6 {
		t.Errorf("trim=3 removed %d points, want 6", outNo.Len()-outTrim.Len())
	}
}

// TestGeoIndRadiusDistribution verifies the planar-Laplace radius follows
// Gamma(2, eps): both the mean (2/eps) and the CDF at the mean
// (1 - 3e^-2 ~ 0.594) must match.
func TestGeoIndRadiusDistribution(t *testing.T) {
	const eps = 0.02 // mean 100 m
	g, err := NewGeoInd(eps, 99)
	if err != nil {
		t.Fatal(err)
	}
	tr := walk("alice", 20000, 1, time.Second)
	out, err := protectOne(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	below := 0
	for i := range out.Records {
		d := geo.Distance(tr.Records[i].Pos, out.Records[i].Pos)
		sum += d
		if d <= 100 {
			below++
		}
	}
	n := float64(out.Len())
	if mean := sum / n; mean < 95 || mean > 105 {
		t.Errorf("mean radius = %f, want ~100", mean)
	}
	// P(R <= mean) for Gamma(2): 1 - 3*exp(-2) = 0.5940
	if frac := float64(below) / n; frac < 0.57 || frac > 0.62 {
		t.Errorf("P(R <= mean) = %f, want ~0.594", frac)
	}
}

// TestMechanismsPreserveUserAndCount documents which mechanisms preserve
// record counts (per-point transforms) and which change them (resampling).
func TestMechanismsPreserveUserAndCount(t *testing.T) {
	tr := randomWalk(3, 300)
	gi, err := NewGeoInd(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCloaking(400, lyon)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGaussianNoise(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	pointwise := []Mechanism{Identity{}, gi, cl, gs}
	for _, m := range pointwise {
		out, err := protectOne(m, tr)
		if err != nil {
			t.Fatal(err)
		}
		if out.User != tr.User {
			t.Errorf("%s changed user to %q", m.Name(), out.User)
		}
		if out.Len() != tr.Len() {
			t.Errorf("%s changed record count %d -> %d", m.Name(), tr.Len(), out.Len())
		}
		// Timestamps unchanged for point-wise mechanisms.
		for i := range out.Records {
			if out.Records[i].Time != tr.Records[i].Time {
				t.Fatalf("%s changed timestamp %d", m.Name(), i)
			}
		}
	}
	sm, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := protectOne(sm, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.User != tr.User {
		t.Errorf("smoothing changed user to %q", out.User)
	}
	if out.Len() == tr.Len() {
		t.Error("smoothing should resample (different record count expected)")
	}
}
