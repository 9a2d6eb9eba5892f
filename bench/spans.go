package main

import (
	"sort"
	"strconv"
	"time"
)

// span is the benchmark's own span form: spans the program's tracer
// recorded are copied into it (sut.go), and the layer ladder records its
// own around direct calls into each layer.
type span struct {
	trace, id, parent string // parent is empty on a root
	name              string
	start, end        time.Time
	attrs             map[string]string
}

// spanTotals aggregates every span of one name.
type spanTotals struct {
	count int
	self  time.Duration   // durations minus the part child spans cover
	durs  []time.Duration // every span's full duration, in input order
	attrs map[string]int  // "key=value" -> spans carrying it
}

func (t spanTotals) total() time.Duration {
	var sum time.Duration
	for _, d := range t.durs {
		sum += d
	}
	return sum
}

// foldSpans folds span trees into totals per span name. A span's self time
// is its duration minus the part of its interval that its direct children
// cover: overlapping children count once, and a child is clipped to its
// parent's interval. Self times of concurrent spans add up, so their sum
// can exceed wall time.
func foldSpans(spans []span) map[string]spanTotals {
	type key struct{ trace, id string }
	children := make(map[key][]int)
	for i, sp := range spans {
		if sp.parent != "" {
			k := key{sp.trace, sp.parent}
			children[k] = append(children[k], i)
		}
	}
	out := make(map[string]spanTotals)
	for _, sp := range spans {
		t := out[sp.name]
		d := sp.end.Sub(sp.start)
		t.count++
		t.durs = append(t.durs, d)
		t.self += d - covered(sp, spans, children[key{sp.trace, sp.id}])
		for k, v := range sp.attrs {
			if t.attrs == nil {
				t.attrs = make(map[string]int)
			}
			t.attrs[k+"="+v]++
		}
		out[sp.name] = t
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ s, e time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.s.After(cur.e):
			sum += cur.e.Sub(cur.s)
			cur = v
		case v.e.After(cur.e):
			cur.e = v.e
		}
	}
	if len(ivs) > 0 {
		sum += cur.e.Sub(cur.s)
	}
	return sum
}

// recorder collects the benchmark-owned spans of the layer ladder. It is
// used from one goroutine.
type recorder struct {
	now   func() time.Time
	spans []span
}

// record runs fn under a span named name caused by the span parent (empty
// for a root); fn receives the new span's id for its own children.
func (r *recorder) record(name, parent string, fn func(id string) error) error {
	idx := len(r.spans)
	id := strconv.Itoa(idx)
	r.spans = append(r.spans, span{trace: "ladder", id: id, parent: parent, name: name, start: r.now()})
	err := fn(id)
	r.spans[idx].end = r.now()
	return err
}
