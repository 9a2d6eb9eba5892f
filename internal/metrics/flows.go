package metrics

import (
	"fmt"
	"math"
	"sort"

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

// TopFlows returns the k heaviest flows, ties broken deterministically.
func TopFlows(m map[Flow]float64, k int) []Flow {
	flows := make([]Flow, 0, len(m))
	for f := range m {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if m[a] != m[b] {
			return m[a] > m[b]
		}
		if a.From != b.From {
			return lessCell(a.From, b.From)
		}
		return lessCell(a.To, b.To)
	})
	if len(flows) > k {
		flows = flows[:k]
	}
	return flows
}

func lessCell(a, b geo.Cell) bool { return compareCell(a, b) < 0 }

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
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].From != flows[j].From {
			return lessCell(flows[i].From, flows[j].From)
		}
		return lessCell(flows[i].To, flows[j].To)
	})
	return flows
}
