package attack

import (
	"context"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/metrics"
	"apisense/internal/trace"
)

func heatmapGrid(t *testing.T, ds *trace.Dataset) *geo.Grid {
	t.Helper()
	box, ok := ds.BBox()
	if !ok {
		t.Fatal("empty dataset")
	}
	g, err := geo.NewGrid(box.Pad(500), 250)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewHeatmapLinkerValidation(t *testing.T) {
	if _, err := NewHeatmapLinker(nil); err == nil {
		t.Error("nil grid should fail")
	}
}

func TestHeatmapLinkageOnRawSplit(t *testing.T) {
	ds, _ := fixture(t)
	cut := time.Date(2014, 12, 15, 0, 0, 0, 0, time.UTC)
	background, test := metrics.SplitAtDay(ds, cut)

	h, err := NewHeatmapLinker(heatmapGrid(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	fps := h.BuildFingerprints(background)
	pseud, err := trace.NewPseudonymizer([]byte("hm"))
	if err != nil {
		t.Fatal(err)
	}
	reverse := map[string]string{}
	for _, u := range ds.Users() {
		reverse[pseud.Pseudonym(u)] = u
	}
	res := h.Run(fps, pseud.Apply(test), func(p string) string { return reverse[p] })
	if res.Users == 0 {
		t.Fatal("nobody attacked")
	}
	if res.Accuracy() < 0.8 {
		t.Errorf("heatmap linkage on raw split = %.2f, want >= 0.8: %v", res.Accuracy(), res)
	}
}

func TestHeatmapLinkageSurvivesSmoothing(t *testing.T) {
	// The stronger statement behind E3: even an attacker that ignores
	// dwell entirely links smoothed traces, because the visited-cells
	// distribution is preserved by design (that is what keeps utility).
	ds, _ := fixture(t)
	sm, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := lppm.ProtectDatasetContext(context.Background(), sm, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeatmapLinker(heatmapGrid(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	fps := h.BuildFingerprints(ds)
	res := h.Run(fps, prot, func(p string) string { return p })
	if res.Accuracy() < 0.7 {
		t.Errorf("heatmap linkage under smoothing = %.2f, expected high (documented limitation)",
			res.Accuracy())
	}
}

func TestHeatmapLinkageDegradesUnderHeavyNoise(t *testing.T) {
	ds, _ := fixture(t)
	gi, err := lppm.NewGeoInd(0.0005, 9) // 4 km mean noise
	if err != nil {
		t.Fatal(err)
	}
	prot, err := lppm.ProtectDatasetContext(context.Background(), gi, ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeatmapLinker(heatmapGrid(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	fps := h.BuildFingerprints(ds)
	raw := h.Run(fps, ds, func(p string) string { return p })
	noisy := h.Run(fps, prot, func(p string) string { return p })
	if noisy.Accuracy() >= raw.Accuracy() {
		t.Errorf("heavy noise did not degrade heatmap linkage: %.2f vs %.2f",
			noisy.Accuracy(), raw.Accuracy())
	}
}

func TestCosineProperties(t *testing.T) {
	a := Fingerprint{{Row: 1, Col: 1}: 0.5, {Row: 2, Col: 2}: 0.5}
	if got := cosine(a, a); got < 0.999 || got > 1.001 {
		t.Errorf("cosine(a,a) = %v, want 1", got)
	}
	disjoint := Fingerprint{{Row: 9, Col: 9}: 1}
	if got := cosine(a, disjoint); got != 0 {
		t.Errorf("cosine of disjoint fingerprints = %v, want 0", got)
	}
	if got := cosine(a, Fingerprint{}); got != 0 {
		t.Errorf("cosine with empty = %v, want 0", got)
	}
}

func TestHeatmapEmptyRelease(t *testing.T) {
	ds, _ := fixture(t)
	h, err := NewHeatmapLinker(heatmapGrid(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	fps := h.BuildFingerprints(ds)
	res := h.Run(fps, trace.NewDataset(), func(p string) string { return p })
	if res.Users != 0 {
		t.Errorf("attacked %d users on an empty release", res.Users)
	}
}
