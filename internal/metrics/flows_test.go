package metrics

import (
	"context"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

func TestFlowMatrixCountsTransitions(t *testing.T) {
	g := testGrid(t)
	a := geo.Translate(lyon, -1000, 0)
	b := geo.Translate(lyon, 1000, 0)
	tr := &trace.Trajectory{User: "u"}
	// a a a b b a : flows a->b and b->a once each.
	positions := []geo.Point{a, a, a, b, b, a}
	for i, p := range positions {
		tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(t0.Add(time.Duration(i) * time.Minute)), Pos: p})
	}
	ds := trace.NewDataset()
	ds.Add(tr)
	m := FlowMatrix(ds, g)
	ab := Flow{From: g.CellOf(a), To: g.CellOf(b)}
	ba := Flow{From: g.CellOf(b), To: g.CellOf(a)}
	if m[ab] != 1 || m[ba] != 1 {
		t.Errorf("flows = %v, want one each way", m)
	}
	if len(m) != 2 {
		t.Errorf("matrix has %d flows, want 2 (no self flows)", len(m))
	}
	if ab.String() == "" {
		t.Error("empty Flow.String")
	}
}

func TestFlowSimilarityBounds(t *testing.T) {
	m := map[Flow]float64{{From: geo.Cell{Row: 1}, To: geo.Cell{Row: 2}}: 3}
	if got := FlowSimilarity(m, m); got < 0.999 {
		t.Errorf("self similarity = %v", got)
	}
	other := map[Flow]float64{{From: geo.Cell{Row: 9}, To: geo.Cell{Row: 8}}: 3}
	if got := FlowSimilarity(m, other); got != 0 {
		t.Errorf("disjoint similarity = %v", got)
	}
	if got := FlowSimilarity(m, nil); got != 0 {
		t.Errorf("empty similarity = %v", got)
	}
}

func TestFlowStructureSurvivesSmoothing(t *testing.T) {
	// The OD structure is another face of claim C3: smoothing preserves
	// the path, so the flow matrix stays close to raw, while strong noise
	// scatters transitions everywhere.
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 13, Users: 10, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	box, _ := ds.BBox()
	g, err := geo.NewGrid(box.Pad(500), 500)
	if err != nil {
		t.Fatal(err)
	}
	raw := FlowMatrix(ds, g)

	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	smoothed, err := lppm.ProtectDatasetContext(context.Background(), sm, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := lppm.NewGeoInd(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := lppm.ProtectDatasetContext(context.Background(), gi, ds, 0)
	if err != nil {
		t.Fatal(err)
	}

	simSmooth := FlowSimilarity(raw, FlowMatrix(smoothed, g))
	simNoisy := FlowSimilarity(raw, FlowMatrix(noisy, g))
	if simSmooth < 0.5 {
		t.Errorf("smoothing flow similarity = %.2f, want >= 0.5", simSmooth)
	}
	if simNoisy >= simSmooth {
		t.Errorf("heavy noise similarity %.2f should be below smoothing %.2f", simNoisy, simSmooth)
	}
}
