package exp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"apisense/internal/core"
	"apisense/internal/lppm"
)

// smallWorkload is shared across tests (generation dominates test time).
var smallWorkload *Workload

func workload(t *testing.T) *Workload {
	t.Helper()
	if smallWorkload == nil {
		w, err := NewWorkload(101, 12, 9)
		if err != nil {
			t.Fatal(err)
		}
		smallWorkload = w
	}
	return smallWorkload
}

func render(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, tab.ID) {
		t.Errorf("rendered table lacks its ID: %s", out)
	}
	return out
}

// cell extracts row r, column c of the table.
func cell(tab *Table, r, c int) string { return tab.Rows[r][c] }

func pct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q: %v", s, err)
	}
	return v / 100
}

func TestNewWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(1, 0, 5); err == nil {
		t.Error("zero users should fail")
	}
}

func TestE1ShapeMatchesClaimC1(t *testing.T) {
	tab, err := E1POIRecovery(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	render(t, tab)
	// Practical budgets (first two rows: eps 0.05 and 0.01) must recover
	// >= 60% of POIs — the paper's claim C1.
	for r := 0; r < 2; r++ {
		if got := pct(t, cell(tab, r, 2)); got < 0.6 {
			t.Errorf("row %d recall = %.2f, want >= 0.6 (claim C1)", r, got)
		}
	}
	// Recall must decrease as the budget strengthens (last row weakest).
	first := pct(t, cell(tab, 0, 2))
	last := pct(t, cell(tab, 3, 2))
	if last >= first {
		t.Errorf("recall did not degrade with stronger privacy: %.2f -> %.2f", first, last)
	}
}

func TestE2ShapeMatchesClaimC2(t *testing.T) {
	tab, err := E2SpeedSmoothing(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	var idF1, smF1 float64
	found := 0
	for _, row := range tab.Rows {
		f1, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad f1 %q", row[3])
		}
		switch {
		case row[0] == "identity":
			idF1 = f1
			found++
		case row[0] == "smoothing(eps=100,trim=2)":
			smF1 = f1
			found++
		}
	}
	if found != 2 {
		t.Fatal("expected mechanisms missing from E2")
	}
	if smF1 > idF1*0.5 {
		t.Errorf("smoothing exposure %.3f should be far below identity %.3f (claim C2)", smF1, idF1)
	}
}

func TestE3LinkageShape(t *testing.T) {
	tab, err := E3Linkage(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	// Identity linkage must be far above the random baseline.
	top1 := pct(t, cell(tab, 0, 1))
	baseline, err := strconv.ParseFloat(cell(tab, 0, 3), 64)
	if err != nil {
		t.Fatal(err)
	}
	if top1 < baseline*4 {
		t.Errorf("identity linkage %.2f not well above baseline %.3f", top1, baseline)
	}
}

func TestE4CrowdedPlacesShape(t *testing.T) {
	tab, err := E4CrowdedPlaces(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	idOverlap, _ := strconv.ParseFloat(byName["identity"][1], 64)
	smOverlap, _ := strconv.ParseFloat(byName["smoothing(eps=100,trim=2)"][1], 64)
	strongGI, _ := strconv.ParseFloat(byName["geoind(eps=0.001)"][1], 64)
	if idOverlap < 0.99 {
		t.Errorf("identity overlap = %v, want 1", idOverlap)
	}
	// Claim C3: smoothing keeps hotspot utility high, strong noise kills it.
	if smOverlap < 0.6 {
		t.Errorf("smoothing overlap = %v, want >= 0.6 (claim C3)", smOverlap)
	}
	if strongGI >= smOverlap {
		t.Errorf("strong geoind overlap %v should be below smoothing %v", strongGI, smOverlap)
	}
}

func TestE5TrafficShape(t *testing.T) {
	tab, err := E5Traffic(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	ratios := map[string]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "x"), 64)
		if err != nil {
			t.Fatalf("bad ratio %q", row[2])
		}
		ratios[row[0]] = v
	}
	if r := ratios["identity"]; r < 0.95 || r > 1.05 {
		t.Errorf("identity traffic ratio = %v, want ~1", r)
	}
	// Claim C3: smoothing within 2x of raw-trained error; strong noise worse.
	if r := ratios["smoothing(eps=100,trim=2)"]; r > 2 {
		t.Errorf("smoothing traffic ratio = %v, want <= 2 (claim C3)", r)
	}
	if ratios["geoind(eps=0.001)"] <= ratios["smoothing(eps=100,trim=2)"] {
		t.Errorf("strong geoind (%v) should forecast worse than smoothing (%v)",
			ratios["geoind(eps=0.001)"], ratios["smoothing(eps=100,trim=2)"])
	}
}

func TestE6FrontierShape(t *testing.T) {
	tab, err := E6Frontier(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	if len(tab.Rows) != 7 {
		t.Errorf("rows = %d, want 7", len(tab.Rows))
	}
}

func TestE7SelectionShape(t *testing.T) {
	tab, err := E7Selection(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 objectives x 3 floors)", len(tab.Rows))
	}
	// At the strict floor with the crowded-places objective, smoothing must
	// be chosen; at the loose floor for distortion, a low-noise mechanism
	// should win instead.
	var strictCrowd, looseDistortion string
	for _, row := range tab.Rows {
		if row[0] == "crowded-places" && row[1] == "0.250" {
			strictCrowd = row[2]
		}
		if row[0] == "distortion" && row[1] == "0.850" {
			looseDistortion = row[2]
		}
	}
	if !strings.HasPrefix(strictCrowd, "smoothing") {
		t.Errorf("strict crowded-places chose %q, want smoothing", strictCrowd)
	}
	if strings.HasPrefix(looseDistortion, "smoothing") {
		t.Errorf("loose distortion chose %q, expected a noise/cloaking mechanism", looseDistortion)
	}
}

func TestE8PlatformShape(t *testing.T) {
	tab, err := E8Platform(context.Background(), workload(t), []int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Records scale with fleet size.
	r0, _ := strconv.Atoi(cell(tab, 0, 2))
	r1, _ := strconv.Atoi(cell(tab, 1, 2))
	if r1 <= r0 {
		t.Errorf("records did not scale: %d -> %d", r0, r1)
	}
}

// TestE8SkipsRepeatedFleetSizes: sizes clamped to the 12 residents of
// the shared workload give one row per distinct fleet.
func TestE8SkipsRepeatedFleetSizes(t *testing.T) {
	for _, tc := range []struct {
		sizes []int
		want  []string
	}{
		{[]int{3, 6, 100}, []string{"3", "6", "12"}},
		{[]int{3, 20, 30}, []string{"3", "12"}},
	} {
		tab, err := E8Platform(context.Background(), workload(t), tc.sizes)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range tab.Rows {
			got = append(got, row[0])
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("sizes %v: rows %v, want %v", tc.sizes, got, tc.want)
		}
	}
}

func TestE11FiltersShape(t *testing.T) {
	tab, err := E11Filters(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
	}
	noneRecall := pct(t, rows["none"][3])
	zoneRecall := pct(t, rows["home-zone-500m"][3])
	if noneRecall < 0.9 {
		t.Errorf("unfiltered home recall = %.2f, want ~1", noneRecall)
	}
	if zoneRecall > noneRecall/2 {
		t.Errorf("home-zone recall %.2f should collapse vs unfiltered %.2f", zoneRecall, noneRecall)
	}
	zoneDropped, _ := strconv.Atoi(rows["home-zone-500m"][2])
	if zoneDropped == 0 {
		t.Error("home zone dropped nothing")
	}
}

// TestTablesStopWhenCancelled: every table cmd/experiments runs returns
// the cancellation of its context instead of finishing the table.
func TestTablesStopWhenCancelled(t *testing.T) {
	w := workload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runners := map[string]func(context.Context, *Workload) (*Table, error){
		"E1": E1POIRecovery, "E2": E2SpeedSmoothing, "E3": E3Linkage,
		"E4": E4CrowdedPlaces, "E5": E5Traffic, "E6": E6Frontier,
		"E7": E7Selection,
		"E8": func(ctx context.Context, w *Workload) (*Table, error) {
			return E8Platform(ctx, w, []int{3})
		},
		"E11": E11Filters, "E13": E13Sharding,
	}
	for id, run := range runners {
		if _, err := run(ctx, w); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with a cancelled context: err = %v, want context.Canceled", id, err)
		}
	}
}

// TestE13ShardingShape: sharded publication must hold the privacy floor in
// every mode and land within epsilon of the monolithic release's exposure
// (the acceptance bar for the sharding pipeline).
func TestE13ShardingShape(t *testing.T) {
	tab, err := E13Sharding(context.Background(), workload(t))
	if err != nil {
		t.Fatal(err)
	}
	render(t, tab)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (monolithic + 3 policies)", len(tab.Rows))
	}
	monoExposure, err := strconv.ParseFloat(cell(tab, 0, 4), 64)
	if err != nil {
		t.Fatal(err)
	}
	const floor, epsilon = 0.33, 0.2
	for r := 1; r < len(tab.Rows); r++ {
		mode := cell(tab, r, 0)
		shards, _ := strconv.Atoi(cell(tab, r, 1))
		if shards < 2 {
			t.Errorf("%s: only %d shards; workload should split", mode, shards)
		}
		exposure, err := strconv.ParseFloat(cell(tab, r, 4), 64)
		if err != nil {
			t.Fatal(err)
		}
		if exposure > floor {
			t.Errorf("%s: worst-shard exposure %.3f breaks the %.2f floor", mode, exposure, floor)
		}
		if diff := exposure - monoExposure; diff > epsilon || diff < -epsilon {
			t.Errorf("%s: exposure %.3f not within %.2f of monolithic %.3f", mode, exposure, epsilon, monoExposure)
		}
		utility, err := strconv.ParseFloat(cell(tab, r, 5), 64)
		if err != nil {
			t.Fatal(err)
		}
		if utility < 0.4 {
			t.Errorf("%s: weighted utility %.3f collapsed vs monolithic %s", mode, utility, cell(tab, 0, 5))
		}
	}
}

// TestTablesJudgeLikeCore pins the tables' judge to core's: for every
// default strategy, the workload's view and attacker score the strategy's
// release exactly as core.EvaluateContext does when both attack the same
// truth (core's reference POIs).
func TestTablesJudgeLikeCore(t *testing.T) {
	w := workload(t)
	strategies, err := core.DefaultStrategies(w.City.Center)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range strategies {
		mw, err := core.New(core.Config{Strategies: []lppm.Mechanism{m}}, w.City.Center)
		if err != nil {
			t.Fatal(err)
		}
		evals, err := mw.EvaluateContext(context.Background(), w.Raw)
		if err != nil {
			t.Fatal(err)
		}
		ev := evals[0]
		release, err := lppm.ProtectDatasetContext(context.Background(), m, w.Raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		score := w.view.Score(release)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"HotspotOverlap", score.HotspotOverlap, ev.HotspotOverlap},
			{"Coverage", score.Coverage, ev.Coverage},
			{"TrafficUtility", score.TrafficUtility, ev.TrafficUtility},
			{"Distortion.Mean", score.Distortion.Mean, ev.Distortion.Mean},
			{"Distortion.Median", score.Distortion.Median, ev.Distortion.Median},
			{"Distortion.P95", score.Distortion.P95, ev.Distortion.P95},
			{"Distortion.Max", score.Distortion.Max, ev.Distortion.Max},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) && !(math.IsNaN(c.got) && math.IsNaN(c.want)) {
				t.Errorf("%s: %s = %v, core says %v", m.Name(), c.name, c.got, c.want)
			}
		}
		if score.Distortion.Points != ev.Distortion.Points {
			t.Errorf("%s: Distortion.Points = %d, core says %d", m.Name(), score.Distortion.Points, ev.Distortion.Points)
		}
		truth, err := mw.ReferencePOIs(w.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.attack.Run(truth, release); got != ev.Privacy {
			t.Errorf("%s: attack = %+v, core says %+v", m.Name(), got, ev.Privacy)
		}
		if release.Len() != ev.Released {
			t.Errorf("%s: released %d, core says %d", m.Name(), release.Len(), ev.Released)
		}
	}
}
