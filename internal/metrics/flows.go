package metrics

import (
	"fmt"
	"math"
	"slices"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// Flow identifies a directed movement between two grid cells.
type Flow struct {
	From geo.Cell
	To   geo.Cell
}

// String implements fmt.Stringer.
func (f Flow) String() string { return fmt.Sprintf("%s->%s", f.From, f.To) }

// FlowMatrix counts directed cell-to-cell transitions across a dataset —
// the origin/destination structure urban planners mine from mobility
// releases. Consecutive records in the same cell do not produce a flow.
func FlowMatrix(d *trace.Dataset, g *geo.Grid) map[Flow]float64 {
	out := make(map[Flow]float64)
	for _, t := range d.Trajectories {
		var prev geo.Cell
		hasPrev := false
		for _, r := range t.Records {
			cell := g.CellOf(r.Pos)
			if hasPrev && cell != prev {
				out[Flow{From: prev, To: cell}]++
			}
			prev = cell
			hasPrev = true
		}
	}
	return out
}

// FlowSimilarity compares two flow matrices with cosine similarity over
// the union of flows: 1 means the protected release preserves the
// origin/destination structure exactly. The folds run over sorted flows so
// the reported similarity is byte-identical between runs.
func FlowSimilarity(a, b map[Flow]float64) float64 {
	var dot, na, nb float64
	for _, f := range sortedFlows(a) {
		va := a[f]
		if vb, ok := b[f]; ok {
			dot += va * vb
		}
		na += va * va
	}
	for _, f := range sortedFlows(b) {
		vb := b[f]
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// sortedFlows returns the matrix's flows in (From, To) row-major order.
func sortedFlows(m map[Flow]float64) []Flow {
	flows := make([]Flow, 0, len(m))
	for f := range m {
		flows = append(flows, f)
	}
	slices.SortFunc(flows, func(a, b Flow) int {
		if a.From != b.From {
			return compareCell(a.From, b.From)
		}
		return compareCell(a.To, b.To)
	})
	return flows
}
