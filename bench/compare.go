package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one workload x metric cell.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// failShareBound is the absolute rise in failed/attempted that counts as a
// regression; fail_share has no relative bound because its base is 0.
const failShareBound = 0.001

// repeating are the per-layer counts that must read exactly the same on
// two runs of one commit with one seed.
var repeating = []string{"store.replay_records", "store.snapshots", "core.strategy.count", "core.attack.count"}

// judge compares side b against base a on one metric whose median may
// worsen by bound, as a share of a's. A cell whose run-to-run spread
// (max-min over the median, on either side) exceeds the bound is unresolved
// rather than unchanged, unless every run of b reads better than every run
// of a.
func judge(a, b []float64, better string, bound float64) string {
	worsening := (median(b) - median(a)) / median(a)
	if better == higher {
		worsening = -worsening
	}
	if max(spread(a), spread(b)) > bound {
		minA, maxA := extremes(a)
		minB, maxB := extremes(b)
		if (better == lower && maxB < minA) || (better == higher && minB > maxA) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worsening > bound {
		return verdictWorse
	}
	return verdictOK
}

func extremes(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// spread is (max-min)/median; 0 for a single run, which has none to show.
func spread(v []float64) float64 {
	lo, hi := extremes(v)
	return (hi - lo) / median(v)
}

func readSets(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f setFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no sets of runs", path)
	}
	return &f, nil
}

// values collects one metric of one workload across a file's sets.
func (f *setFile) values(workload string, pick func(workloadRuns) (float64, bool)) []float64 {
	var out []float64
	for _, set := range f.Sets {
		if wr, ok := set[workload]; ok {
			if v, ok := pick(wr); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// compareFiles prints the comparison of b against base a and reports
// whether any end-to-end cell is worse than its bound allows.
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readSets(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSets(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase (%d runs)\tchange (%d runs)\tchange/base\tbound\tverdict\n", len(a.Sets), len(b.Sets))
	for _, w := range workloads {
		for _, d := range endToEnd {
			pick := func(wr workloadRuns) (float64, bool) {
				m, ok := wr.EndToEnd.Metrics[d.Name]
				return m.Value, ok
			}
			va, vb := a.values(w.name, pick), b.values(w.name, pick)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := judge(va, vb, d.Better, bounds[d.Name])
			worse = worse || verdict == verdictWorse
			medA, medB := median(va), median(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%.3f\t%.2f\t%s\n",
				w.name, d.Name, medA, d.Unit, medB, d.Unit, medB/medA, bounds[d.Name], verdict)
		}
		share := func(wr workloadRuns) (float64, bool) {
			r := wr.EndToEnd
			return float64(r.Failed) / float64(max(r.Attempted, 1)), r.Attempted > 0
		}
		if fa, fb := a.values(w.name, share), b.values(w.name, share); len(fa) > 0 && len(fb) > 0 {
			verdict := verdictOK
			if median(fb)-median(fa) > failShareBound {
				verdict, worse = verdictWorse, true
			}
			fmt.Fprintf(tw, "%s\tfail_share\t%.4f\t%.4f\t-\t+%.3f\t%s\n", w.name, median(fa), median(fb), failShareBound, verdict)
		}
		for _, name := range append([]string{"attempted"}, repeating...) {
			pick := func(wr workloadRuns) (float64, bool) {
				if name == "attempted" {
					return float64(wr.EndToEnd.Attempted), wr.EndToEnd.Attempted > 0
				}
				m, ok := wr.PerLayer.Metrics[name]
				return m.Value, ok
			}
			all := append(a.values(w.name, pick), b.values(w.name, pick)...)
			if len(all) == 0 {
				continue
			}
			sort.Float64s(all)
			verdict := "equal"
			if all[0] != all[len(all)-1] {
				verdict = "differs"
			}
			fmt.Fprintf(tw, "%s\t%s\t%g\t%g\t-\t-\t%s\n", w.name, name, all[0], all[len(all)-1], verdict)
		}
	}
	return worse, tw.Flush()
}
