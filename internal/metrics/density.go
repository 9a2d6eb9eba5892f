// Package metrics implements the utility metrics of the paper's claim C3:
// a protected release "remains high[ly useful] for useful data mining tasks
// such as finding out crowded places or predicting traffic".
//
// It provides crowd-density analysis (top-k crowded cells and their overlap
// between raw and protected data), a per-cell-per-hour traffic forecaster
// with its error metrics, time-aligned spatial distortion, and spatial
// coverage.
package metrics

import (
	"cmp"
	"fmt"
	"slices"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// Density maps grid cells to an activity score.
type Density map[geo.Cell]float64

// UserDensity counts the number of distinct users seen in each cell — the
// "crowded places" measure of the paper.
func UserDensity(d *trace.Dataset, g *geo.Grid) Density {
	scored := tallyCells(d, g, false).scored()
	out := make(Density, len(scored))
	for _, s := range scored {
		out[s.cell] = s.score
	}
	return out
}

// scoredCell is one entry of a density in the form the ranking works on.
type scoredCell struct {
	cell  geo.Cell
	score float64
}

// compareScored orders cells densest first, ties broken by cell
// coordinates.
func compareScored(a, b scoredCell) int {
	if a.score != b.score {
		if a.score > b.score {
			return -1
		}
		return 1
	}
	return compareCell(a.cell, b.cell)
}

// topCells sorts cells by compareScored and keeps the first k.
func topCells(cells []scoredCell, k int) []scoredCell {
	slices.SortFunc(cells, compareScored)
	return cells[:min(k, len(cells))]
}

func topDensity(den Density, k int) []scoredCell {
	cells := make([]scoredCell, 0, len(den))
	for c, score := range den {
		cells = append(cells, scoredCell{cell: c, score: score})
	}
	slices.SortFunc(cells, compareScored) // here, not in topCells, where detrange can see it
	return cells[:min(k, len(cells))]
}

func compareCell(a, b geo.Cell) int {
	if a.Row != b.Row {
		return cmp.Compare(a.Row, b.Row)
	}
	return cmp.Compare(a.Col, b.Col)
}

// TopK returns the k densest cells, ties broken deterministically by cell
// coordinates. It returns fewer than k cells when the density has fewer
// non-zero entries.
func TopK(den Density, k int) []geo.Cell {
	top := topDensity(den, k)
	cells := make([]geo.Cell, len(top))
	for i, s := range top {
		cells[i] = s.cell
	}
	return cells
}

// TopKOverlap compares the top-k cells of two densities and returns the F1
// overlap (equal to precision and recall when both sides yield k cells).
// This is the "finding out crowded places" utility score: 1 means the
// protected release identifies exactly the same hotspots as the raw data.
func TopKOverlap(raw, protected Density, k int) float64 {
	if k <= 0 {
		return 0
	}
	return topOverlap(cellSet(topDensity(raw, k)), topDensity(protected, k))
}

func cellSet(cells []scoredCell) map[geo.Cell]bool {
	set := make(map[geo.Cell]bool, len(cells))
	for _, s := range cells {
		set[s.cell] = true
	}
	return set
}

// topOverlap is the F1 overlap of two top-k lists, the first given as a set.
func topOverlap(a map[geo.Cell]bool, b []scoredCell) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var inter int
	for _, s := range b {
		if a[s.cell] {
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(a)+len(b))
}

// Coverage returns the fraction of cells visited in the raw dataset that
// are also visited in the protected release.
func Coverage(raw, protected *trace.Dataset, g *geo.Grid) float64 {
	rc := tallyCells(raw, g, false)
	pc := newCellTally(g, &rc.extra)
	pc.addDataset(protected, false)
	return coverage(pc)
}

// coverage is the visited share of the tally's base cells.
func coverage(c *cellTally) float64 {
	if c.base.len() == 0 {
		return 0
	}
	return float64(c.baseVisited()) / float64(c.base.len())
}

// HotspotReport is a printable summary of crowd-density utility.
type HotspotReport struct {
	K       int
	Overlap float64
}

// String implements fmt.Stringer.
func (h HotspotReport) String() string {
	return fmt.Sprintf("top-%d overlap=%.2f", h.K, h.Overlap)
}
