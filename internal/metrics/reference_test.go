package metrics

// The scorers as they stood before the scoring kernel replaced them, bodies
// unchanged (only renamed with a ref prefix) but for refSummarize, which
// keeps only the mean and the count, its mean made exact: the oracles the
// differential tests in kernel_test.go hold the kernel to.
// They exist nowhere outside this file.

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// refUserDensity counts the number of distinct users seen in each cell — the
// "crowded places" measure of the paper.
func refUserDensity(d *trace.Dataset, g *geo.Grid) Density {
	seen := make(map[geo.Cell]map[string]bool)
	for _, t := range d.Trajectories {
		for _, r := range t.Records {
			c := g.CellOf(r.Pos)
			users, ok := seen[c]
			if !ok {
				users = make(map[string]bool)
				seen[c] = users
			}
			users[t.User] = true
		}
	}
	out := make(Density, len(seen))
	for c, users := range seen {
		out[c] = float64(len(users))
	}
	return out
}

// refFixDensity counts the number of fixes in each cell.
func refFixDensity(d *trace.Dataset, g *geo.Grid) Density {
	out := make(Density)
	for _, t := range d.Trajectories {
		for _, r := range t.Records {
			out[g.CellOf(r.Pos)]++
		}
	}
	return out
}

// refTopK returns the k densest cells, ties broken deterministically by cell
// coordinates. It returns fewer than k cells when the density has fewer
// non-zero entries.
func refTopK(den Density, k int) []geo.Cell {
	cells := make([]geo.Cell, 0, len(den))
	for c := range den {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if den[a] != den[b] {
			return den[a] > den[b]
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Col < b.Col
	})
	if len(cells) > k {
		cells = cells[:k]
	}
	return cells
}

// refTopKOverlap compares the top-k cells of two densities and returns the F1
// overlap (equal to precision and recall when both sides yield k cells).
// This is the "finding out crowded places" utility score: 1 means the
// protected release identifies exactly the same hotspots as the raw data.
func refTopKOverlap(raw, protected Density, k int) float64 {
	if k <= 0 {
		return 0
	}
	a := refTopK(raw, k)
	b := refTopK(protected, k)
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[geo.Cell]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	var inter int
	for _, c := range b {
		if set[c] {
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(a)+len(b))
}

// refCoverage returns the fraction of cells visited in the raw dataset that
// are also visited in the protected release.
func refCoverage(raw, protected *trace.Dataset, g *geo.Grid) float64 {
	rd := refFixDensity(raw, g)
	if len(rd) == 0 {
		return 0
	}
	pd := refFixDensity(protected, g)
	var kept int
	for c := range rd {
		if pd[c] > 0 {
			kept++
		}
	}
	return float64(kept) / float64(len(rd))
}

// refCountTraffic builds traffic counts for the dataset on the given grid.
func refCountTraffic(d *trace.Dataset, g *geo.Grid) *TrafficCounts {
	tc := &TrafficCounts{
		Visits: make(map[CellHour]map[string]float64),
		Days:   make(map[string]bool),
	}
	type visitKey struct {
		ch   CellHour
		day  string
		user string
	}
	seen := make(map[visitKey]bool)
	for _, t := range d.Trajectories {
		for _, r := range t.Records {
			utc := r.Time.UTC()
			ch := CellHour{Cell: g.CellOf(r.Pos), Hour: utc.Hour()}
			day := utc.Format("2006-01-02")
			k := visitKey{ch: ch, day: day, user: t.User}
			if seen[k] {
				continue
			}
			seen[k] = true
			tc.Days[day] = true
			byDay, ok := tc.Visits[ch]
			if !ok {
				byDay = make(map[string]float64)
				tc.Visits[ch] = byDay
			}
			byDay[day]++
		}
	}
	return tc
}

// refForecaster predicts per-(cell,hour) visit counts as the historical mean
// over the training days — the standard baseline for urban traffic
// prediction and the data-mining task of the paper's claim C3.
type refForecaster struct {
	mean map[CellHour]float64
	days int
}

// refNewForecaster trains a historical-average forecaster from counts.
func refNewForecaster(tc *TrafficCounts) (*refForecaster, error) {
	if len(tc.Days) == 0 {
		return nil, fmt.Errorf("metrics: no training days")
	}
	f := &refForecaster{mean: make(map[CellHour]float64, len(tc.Visits)), days: len(tc.Days)}
	for ch, byDay := range tc.Visits {
		f.mean[ch] = refSumByDay(byDay) / float64(len(tc.Days))
	}
	return f, nil
}

// refSumByDay adds per-day counts in day order: float addition is not
// associative, so summing in map iteration order would make the forecaster
// differ in the last bits from run to run, breaking the engine's guarantee
// of byte-identical reports.
func refSumByDay(byDay map[string]float64) float64 {
	days := make([]string, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	sort.Strings(days)
	var sum float64
	for _, d := range days {
		sum += byDay[d]
	}
	return sum
}

// Predict returns the expected visit count for a cell-hour.
func (f *refForecaster) Predict(ch CellHour) float64 { return f.mean[ch] }

// Evaluate compares the forecaster against the actual counts of a test
// dataset (typically one held-out raw day). Every cell-hour active in
// either the forecast or the actual data is scored, so both missed traffic
// and hallucinated traffic count as error.
func (f *refForecaster) Evaluate(actual *TrafficCounts) ForecastError {
	if len(actual.Days) == 0 {
		return ForecastError{}
	}
	// Average actual per cell-hour across the test days.
	act := make(map[CellHour]float64, len(actual.Visits))
	for ch, byDay := range actual.Visits {
		act[ch] = refSumByDay(byDay) / float64(len(actual.Days))
	}
	// Score the union of active cell-hours in a stable order (see
	// refSumByDay for why accumulation order matters).
	evaluated := make(map[CellHour]bool, len(act)+len(f.mean))
	chs := make([]CellHour, 0, len(act)+len(f.mean))
	collect := func(ch CellHour) {
		if !evaluated[ch] {
			evaluated[ch] = true
			chs = append(chs, ch)
		}
	}
	for ch := range act {
		collect(ch)
	}
	for ch := range f.mean {
		collect(ch)
	}
	sort.Slice(chs, func(i, j int) bool {
		a, b := chs[i], chs[j]
		if a.Cell.Row != b.Cell.Row {
			return a.Cell.Row < b.Cell.Row
		}
		if a.Cell.Col != b.Cell.Col {
			return a.Cell.Col < b.Cell.Col
		}
		return a.Hour < b.Hour
	})
	var absSum, sqSum float64
	for _, ch := range chs {
		diff := f.Predict(ch) - act[ch]
		absSum += math.Abs(diff)
		sqSum += diff * diff
	}
	n := len(chs)
	if n == 0 {
		return ForecastError{}
	}
	return ForecastError{MAE: absSum / float64(n), RMSE: math.Sqrt(sqSum / float64(n)), Cells: n}
}

// refSpatialDistortion measures how far each protected record is from the
// user's true (interpolated) position at the same instant. Raw and
// protected are matched per user; protected records outside the raw time
// span are skipped. Mechanisms that displace points in space (noise,
// cloaking) score by their noise amplitude; mechanisms that displace points
// in time (speed smoothing) score by how far along the path the release has
// shifted the user.
func refSpatialDistortion(raw, protected *trace.Dataset) DistortionStats {
	rawByUser := raw.ByUser()
	var dists []float64
	for _, pt := range protected.Trajectories {
		rawTrajs := rawByUser[pt.User]
		if len(rawTrajs) == 0 {
			continue
		}
		for _, r := range pt.Records {
			truePos, ok := refPositionAt(rawTrajs, r.Time)
			if !ok {
				continue
			}
			dists = append(dists, geo.Distance(truePos, r.Pos))
		}
	}
	return refSummarize(dists)
}

// refPositionAt finds the user's interpolated position at ts across their raw
// trajectories.
func refPositionAt(trajs []*trace.Trajectory, ts time.Time) (geo.Point, bool) {
	for _, t := range trajs {
		if p, ok := t.At(ts); ok {
			return p, true
		}
	}
	return geo.Point{}, false
}

// refSummarize reads the mean and the count off the distances. The old
// body's ascending float64 sum became the exact sum of math/big, rounded
// once, with NaN and the infinities summing as IEEE-754 adds them.
func refSummarize(dists []float64) DistortionStats {
	if len(dists) == 0 {
		return DistortionStats{}
	}
	return DistortionStats{Mean: refExactSum(dists) / float64(len(dists)), Points: len(dists)}
}

// refExactSum adds the values in math/big at a precision that holds any
// sum of float64 values exactly, and rounds the total to the nearest
// float64, ties to even.
func refExactSum(vals []float64) float64 {
	var inf float64
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			return math.NaN()
		case math.IsInf(v, 0):
			inf += v // +Inf and -Inf make NaN
		}
	}
	if inf != 0 {
		return inf
	}
	sum := new(big.Float).SetPrec(4096)
	for _, v := range vals {
		sum.Add(sum, big.NewFloat(v))
	}
	f, _ := sum.Float64()
	return f
}
