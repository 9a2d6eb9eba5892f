package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// CellHour identifies one grid cell during one hour of the day (0-23).
type CellHour struct {
	Cell geo.Cell
	Hour int
}

// TrafficCounts accumulates, for every (cell, hour-of-day), the number of
// distinct user visits per calendar day. A visit is counted once per user
// per cell per hour per day.
type TrafficCounts struct {
	// Visits[ch][day] is the visit count for day (formatted 2006-01-02).
	Visits map[CellHour]map[string]float64
	// Days is the set of days observed.
	Days map[string]bool
}

// CountTraffic builds traffic counts for the dataset on the given grid.
func CountTraffic(d *trace.Dataset, g *geo.Grid) *TrafficCounts {
	return tallyCells(d, g, true).trafficCounts()
}

// hourMean is the mean visit count of one cell-hour. The forecaster and its
// evaluation work on slices of them sorted by cell-hour: float addition is
// not associative, so errors are accumulated in that one order to keep
// reports byte-identical from run to run.
type hourMean struct {
	ch CellHour
	v  float64
}

func compareCellHour(a, b CellHour) int {
	if a.Cell != b.Cell {
		return compareCell(a.Cell, b.Cell)
	}
	return cmp.Compare(a.Hour, b.Hour)
}

// hourlyMeans averages counts over their observed days, sorted by
// cell-hour.
func hourlyMeans(tc *TrafficCounts) []hourMean {
	out := make([]hourMean, 0, len(tc.Visits))
	for ch, byDay := range tc.Visits {
		out = append(out, hourMean{ch: ch, v: sumByDay(byDay) / float64(len(tc.Days))})
	}
	slices.SortFunc(out, func(a, b hourMean) int { return compareCellHour(a.ch, b.ch) })
	return out
}

// Forecaster predicts per-(cell,hour) visit counts as the historical mean
// over the training days — the standard baseline for urban traffic
// prediction and the data-mining task of the paper's claim C3.
type Forecaster struct {
	means []hourMean // sorted by cell-hour
}

// NewForecaster trains a historical-average forecaster from counts.
func NewForecaster(tc *TrafficCounts) (*Forecaster, error) {
	if len(tc.Days) == 0 {
		return nil, fmt.Errorf("metrics: no training days")
	}
	return &Forecaster{means: hourlyMeans(tc)}, nil
}

// sumByDay adds per-day counts in day order: float addition is not
// associative, so summing in map iteration order would make the forecaster
// differ in the last bits from run to run, breaking the engine's guarantee
// of byte-identical reports.
func sumByDay(byDay map[string]float64) float64 {
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
func (f *Forecaster) Predict(ch CellHour) float64 {
	i, ok := slices.BinarySearchFunc(f.means, ch, func(m hourMean, ch CellHour) int {
		return compareCellHour(m.ch, ch)
	})
	if !ok {
		return 0
	}
	return f.means[i].v
}

// ForecastError summarises forecast accuracy over a test day.
type ForecastError struct {
	MAE   float64 // mean absolute error over active cell-hours
	RMSE  float64
	Cells int // number of cell-hours evaluated
}

// String implements fmt.Stringer.
func (e ForecastError) String() string {
	return fmt.Sprintf("mae=%.3f rmse=%.3f over %d cell-hours", e.MAE, e.RMSE, e.Cells)
}

// Evaluate compares the forecaster against the actual counts of a test
// dataset (typically one held-out raw day). Every cell-hour active in
// either the forecast or the actual data is scored, so both missed traffic
// and hallucinated traffic count as error.
func (f *Forecaster) Evaluate(actual *TrafficCounts) ForecastError {
	if len(actual.Days) == 0 {
		return ForecastError{}
	}
	return forecastError(f.means, hourlyMeans(actual))
}

// forecastError scores predicted against actual means over the union of
// their cell-hours, a missing side counting as zero. Both are sorted by
// cell-hour and the errors are accumulated in that order.
func forecastError(pred, act []hourMean) ForecastError {
	var absSum, sqSum float64
	var n, i, j int
	for i < len(pred) || j < len(act) {
		var p, a float64
		switch c := compareHeads(pred[i:], act[j:]); {
		case c < 0:
			p = pred[i].v
			i++
		case c > 0:
			a = act[j].v
			j++
		default:
			p, a = pred[i].v, act[j].v
			i++
			j++
		}
		diff := p - a
		absSum += math.Abs(diff)
		sqSum += diff * diff
		n++
	}
	if n == 0 {
		return ForecastError{}
	}
	return ForecastError{MAE: absSum / float64(n), RMSE: math.Sqrt(sqSum / float64(n)), Cells: n}
}

// compareHeads orders the first cell-hours of two sorted lists that are not
// both empty; an exhausted list sorts last.
func compareHeads(a, b []hourMean) int {
	switch {
	case len(b) == 0:
		return -1
	case len(a) == 0:
		return 1
	}
	return compareCellHour(a[0].ch, b[0].ch)
}

// SplitAtDay partitions a dataset into trajectories starting before the cut
// instant and those starting at or after it — the train/test split used by
// the traffic experiment.
func SplitAtDay(d *trace.Dataset, cut time.Time) (before, after *trace.Dataset) {
	before = trace.NewDataset()
	after = trace.NewDataset()
	for _, t := range d.Trajectories {
		start, err := t.Start()
		if err != nil {
			continue
		}
		if start.Before(cut) {
			before.Add(t)
		} else {
			after.Add(t)
		}
	}
	return before, after
}
