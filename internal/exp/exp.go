// Package exp is the experiment harness: one runner per experiment table,
// E1–E8, E11 and E13. E1, E2, E4 and E5 reproduce the paper's claims
// C1–C3; the others cover the platform pipeline, the device-side filters
// and sharded publication. The runners are shared by the cmd/experiments
// binary and the root-level benchmarks, and all take an explicit seed so
// results are reproducible. Every runner takes the caller's context and is
// abandoned at its next cancellation point once that context is cancelled.
//
// The tables judge a release as the PRIVAPI middleware does: with core's
// simulated attacker (core.NewAttack) and the utility scorecard of one
// metrics.RawView per workload. The one deliberate difference is the
// truth attacked: mobgen's true POIs (Workload.Truth), where core attacks
// the reference POIs it extracts from the raw data.
package exp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"apisense/internal/attack"
	"apisense/internal/core"
	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/metrics"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

// Workload bundles the synthetic dataset and its ground truth, shared
// across privacy/utility experiments, with the judge of its releases.
// Build one with NewWorkload, which sets the judge.
type Workload struct {
	Raw   *trace.Dataset
	City  *mobgen.City
	Truth map[string][]geo.Point
	Grid  *geo.Grid

	// attack is core's simulated attacker at its default configuration.
	attack *attack.POIRecovery
	// view scores a release of Raw as core does: top-20 hotspots on
	// Grid, traffic held out from lastDay on.
	view *metrics.RawView
	// lastDay is the UTC midnight that opens Raw's last day.
	lastDay time.Time
}

// DefaultUsers/DefaultDays are the standard workload size (50 users × 14
// days in the full runs; benches shrink it).
const (
	DefaultUsers = 50
	DefaultDays  = 14
)

// NewWorkload generates the standard experimental workload.
func NewWorkload(seed uint64, users, days int) (*Workload, error) {
	ds, city, err := mobgen.Generate(mobgen.Config{Seed: seed, Users: users, Days: days})
	if err != nil {
		return nil, fmt.Errorf("exp: generate workload: %w", err)
	}
	truth := make(map[string][]geo.Point, len(city.Residents))
	for _, r := range city.Residents {
		truth[r.User] = r.TruePOIs()
	}
	box, ok := ds.BBox()
	if !ok {
		return nil, fmt.Errorf("exp: empty workload")
	}
	grid, err := geo.NewGrid(box.Pad(500), 250)
	if err != nil {
		return nil, fmt.Errorf("exp: grid: %w", err)
	}
	atk, err := core.NewAttack(core.Config{})
	if err != nil {
		return nil, err
	}
	_, end, _ := ds.TimeSpan()
	endEve := end.Add(-time.Nanosecond) // an end exactly at midnight belongs to the previous day
	lastDay := time.Date(endEve.Year(), endEve.Month(), endEve.Day(), 0, 0, 0, 0, time.UTC)
	return &Workload{
		Raw: ds, City: city, Truth: truth, Grid: grid,
		attack:  atk,
		view:    metrics.NewRawView(ds, grid, 20, lastDay),
		lastDay: lastDay,
	}, nil
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// mechanismPortfolio is the standard mechanism set compared across E1-E5.
func mechanismPortfolio(origin geo.Point) ([]lppm.Mechanism, error) {
	var out []lppm.Mechanism
	out = append(out, lppm.Identity{})
	for _, eps := range []float64{0.05, 0.01, 0.005, 0.001} {
		gi, err := lppm.NewGeoInd(eps, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, gi)
	}
	cl, err := lppm.NewCloaking(800, origin)
	if err != nil {
		return nil, err
	}
	out = append(out, cl)
	sim, err := lppm.NewSimplify(100)
	if err != nil {
		return nil, err
	}
	out = append(out, sim)
	for _, eps := range []float64{50, 100, 200} {
		sm, err := lppm.NewSpeedSmoothing(eps, 2)
		if err != nil {
			return nil, err
		}
		out = append(out, sm)
	}
	return out, nil
}

// fmtPct formats a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// E1POIRecovery runs experiment E1 (claim C1): POI recovery under
// geo-indistinguishability across privacy budgets.
func E1POIRecovery(ctx context.Context, w *Workload) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "POI recovery under geo-indistinguishability (claim C1: >=60% at practical budgets)",
		Columns: []string{"mechanism", "mean-noise", "recall", "precision", "f1"},
		Notes: []string{
			"recall is the paper's 're-identify at least 60% of the POIs' figure",
			"attacker: stay points d=500m t=15min, match radius 250m",
		},
	}
	for _, eps := range []float64{0.05, 0.01, 0.005, 0.001} {
		gi, err := lppm.NewGeoInd(eps, 1)
		if err != nil {
			return nil, err
		}
		release, err := lppm.ProtectDatasetContext(ctx, gi, w.Raw, 0)
		if err != nil {
			return nil, err
		}
		res := w.attack.Run(w.Truth, release)
		t.Rows = append(t.Rows, []string{
			gi.Name(),
			fmt.Sprintf("%.0fm", 2/eps),
			fmtPct(res.Recall()), fmtPct(res.Precision()), fmtF(res.F1()),
		})
	}
	return t, nil
}

// E2SpeedSmoothing runs experiment E2 (claim C2): POI exposure across the
// full mechanism portfolio, including the paper's speed smoothing.
func E2SpeedSmoothing(ctx context.Context, w *Workload) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "POI exposure per mechanism (claim C2: smoothing hides stops)",
		Columns: []string{"mechanism", "recall", "precision", "f1", "released"},
		Notes: []string{
			"f1 is the exposure score PRIVAPI's privacy floor bounds",
			"smoothing recall stays high only because paths cross true POIs; precision collapses",
		},
	}
	portfolio, err := mechanismPortfolio(w.City.Center)
	if err != nil {
		return nil, err
	}
	for _, m := range portfolio {
		release, err := lppm.ProtectDatasetContext(ctx, m, w.Raw, 0)
		if err != nil {
			return nil, err
		}
		res := w.attack.Run(w.Truth, release)
		t.Rows = append(t.Rows, []string{
			m.Name(), fmtPct(res.Recall()), fmtPct(res.Precision()), fmtF(res.F1()),
			fmt.Sprintf("%d", release.Len()),
		})
	}
	return t, nil
}

// E3Linkage runs experiment E3: POI-profile re-identification accuracy per
// mechanism, with a weekday train/test split.
func E3Linkage(ctx context.Context, w *Workload) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "User re-identification by POI profiles (train: week 1, test: rest)",
		Columns: []string{"mechanism", "top1", "top3", "baseline"},
		Notes: []string{
			"profiles learned from raw week 1; test release pseudonymised",
		},
	}
	start, _, ok := w.Raw.TimeSpan()
	if !ok {
		return nil, fmt.Errorf("exp: empty dataset")
	}
	cut := time.Date(start.Year(), start.Month(), start.Day(), 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7)
	background, test := metrics.SplitAtDay(w.Raw, cut)
	if background.Len() == 0 || test.Len() == 0 {
		return nil, fmt.Errorf("exp: workload too short for linkage split")
	}
	linker, err := attack.NewLinker(w.attack.Extractor, 0)
	if err != nil {
		return nil, err
	}
	profiles := linker.BuildProfiles(background)
	pseud, err := trace.NewPseudonymizer([]byte("exp-release"))
	if err != nil {
		return nil, err
	}
	reverse := make(map[string]string)
	for _, u := range w.Raw.Users() {
		reverse[pseud.Pseudonym(u)] = u
	}

	portfolio, err := mechanismPortfolio(w.City.Center)
	if err != nil {
		return nil, err
	}
	for _, m := range portfolio {
		release, err := lppm.ProtectDatasetContext(ctx, m, test, 0)
		if err != nil {
			return nil, err
		}
		res := linker.Run(profiles, pseud.Apply(release), func(p string) string { return reverse[p] })
		t.Rows = append(t.Rows, []string{
			m.Name(),
			fmtPct(res.Accuracy()), fmtPct(res.AccuracyTop3()), fmtF(res.Baseline),
		})
	}
	return t, nil
}

// E4CrowdedPlaces runs experiment E4 (claim C3): top-20 crowded-cell
// overlap, cell coverage and origin/destination-flow similarity per
// mechanism.
func E4CrowdedPlaces(ctx context.Context, w *Workload) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Crowded-places utility: top-20 hotspot overlap (claim C3)",
		Columns: []string{"mechanism", "overlap-f1", "coverage", "flow-sim"},
	}
	rawFlows := metrics.FlowMatrix(w.Raw, w.Grid)
	portfolio, err := mechanismPortfolio(w.City.Center)
	if err != nil {
		return nil, err
	}
	for _, m := range portfolio {
		release, err := lppm.ProtectDatasetContext(ctx, m, w.Raw, 0)
		if err != nil {
			return nil, err
		}
		score := w.view.Score(release)
		flowSim := metrics.FlowSimilarity(rawFlows, metrics.FlowMatrix(release, w.Grid))
		t.Rows = append(t.Rows, []string{m.Name(), fmtF(score.HotspotOverlap), fmtF(score.Coverage), fmtF(flowSim)})
	}
	return t, nil
}

// E5Traffic runs experiment E5 (claim C3): traffic forecasting error when
// training on protected data.
func E5Traffic(ctx context.Context, w *Workload) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Traffic forecasting: historical-average MAE on held-out raw day (claim C3)",
		Columns: []string{"mechanism", "mae", "vs-raw-trained"},
		Notes:   []string{"lower is better; vs-raw-trained = protMAE/rawMAE (1.0 = no loss)"},
	}
	rawTrain, rawTest := metrics.SplitAtDay(w.Raw, w.lastDay)
	actual := metrics.CountTraffic(rawTest, w.Grid)
	baseF, err := metrics.NewForecaster(metrics.CountTraffic(rawTrain, w.Grid))
	if err != nil {
		return nil, err
	}
	baseMAE := baseF.Evaluate(actual).MAE

	portfolio, err := mechanismPortfolio(w.City.Center)
	if err != nil {
		return nil, err
	}
	for _, m := range portfolio {
		release, err := lppm.ProtectDatasetContext(ctx, m, w.Raw, 0)
		if err != nil {
			return nil, err
		}
		protTrain, _ := metrics.SplitAtDay(release, w.lastDay)
		f, err := metrics.NewForecaster(metrics.CountTraffic(protTrain, w.Grid))
		if err != nil {
			return nil, err
		}
		mae := f.Evaluate(actual).MAE
		ratio := 0.0
		if baseMAE > 0 {
			ratio = mae / baseMAE
		}
		t.Rows = append(t.Rows, []string{m.Name(), fmtF(mae), fmt.Sprintf("%.2fx", ratio)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("raw-trained baseline MAE = %.3f", baseMAE))
	return t, nil
}
