// Package obs is a dependency-free metrics registry exposing the
// Prometheus text exposition format (version 0.0.4). It implements the
// small slice of a metrics client the platform needs — counters, gauges,
// fixed-bucket histograms, labelled variants and collect-time callback
// metrics — without importing anything beyond the standard library, so it
// can be wired into every binary and test.
//
// Instruments are nil-safe: every mutating method on a nil *Counter or
// *Histogram (and With on a nil vec) is a no-op, so an instrumented
// package holding nil instruments pays one branch per observation.
// Gauges are collect-time callbacks only (GaugeFunc, GaugeFuncVec): every
// gauge the platform exports reads state another subsystem already keeps.
//
// Output is deterministic: families are emitted sorted by name, series
// within a family sorted by label values, so /metrics responses are
// byte-stable for a fixed set of observations and can be diffed and
// table-tested.
//
// Concurrency: a Registry and every instrument it creates are safe for
// unsynchronised concurrent use. Counters and histograms update
// through atomics; registration and collection take the registry lock.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the default histogram buckets for second-valued
// latency series: half a millisecond to ten seconds, roughly
// logarithmic. Fixed buckets keep the exposition format deterministic.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the default histogram buckets for count-valued series
// such as group-commit sizes.
var SizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

// Registry holds metric families and renders them in the Prometheus text
// format. Create with NewRegistry; a Registry is an http.Handler serving
// its own exposition (mount it at GET /metrics).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: a scalar or labelled set of series
// of one kind, or a collect-time callback.
type family struct {
	name    string
	help    string
	kind    string // "counter", "gauge" or "histogram"
	labels  []string
	buckets []float64       // histograms only
	fn      func() float64  // callback families only
	sfn     func() []Sample // multi-sample callback families only

	mu       sync.Mutex
	children map[string]any // label signature -> *Counter/*Histogram/*funcSeries
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family for name, creating it on first use. A second
// registration with the same shape returns the existing family (so
// package-level NewMetrics helpers are idempotent per registry); a
// conflicting shape panics — two meanings for one series name is a
// programming error no scrape should paper over.
func (r *Registry) lookup(name, help, kind string, labels []string, buckets []float64, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) || (f.fn == nil) != (fn == nil) || f.sfn != nil {
			panic(fmt.Sprintf("obs: metric %q redeclared with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		fn:       fn,
		children: make(map[string]any),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child returns the series for one label signature, creating it with mk
// on first use.
func (f *family) child(sig string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[sig]
	if !ok {
		c = mk()
		f.children[sig] = c
	}
	return c
}

// Histogram registers (or finds) a fixed-bucket histogram; buckets are
// upper bounds, sorted ascending (a final +Inf bucket is implicit).
// Nil-safe: a nil registry returns a nil histogram whose methods are
// no-ops.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, "histogram", nil, buckets, nil)
	return f.child("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec registers (or finds) a counter family with the given label
// names. Nil-safe like Histogram.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, "counter", labels, nil, nil)}
}

// HistogramVec registers (or finds) a histogram family with the given
// label names. Nil-safe like Histogram.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.lookup(name, help, "histogram", labels, buckets, nil)}
}

// CounterFunc registers a counter whose value is read from fn at collect
// time — for monotone counters another subsystem already maintains (e.g.
// journal fsyncs). Registering the same name twice panics: a callback
// series has exactly one owner. Nil-safe on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.registerFunc(name, help, "counter", fn)
}

// GaugeFunc registers a gauge read from fn at collect time — for gauges
// derived from live state (queue depth, cache bytes). Same ownership rule
// as CounterFunc. Nil-safe on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.registerFunc(name, help, "gauge", fn)
}

// registerFunc installs a collect-time callback family.
func (r *Registry) registerFunc(name, help, kind string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("obs: callback metric %q registered twice", name))
	}
	r.families[name] = &family{name: name, help: help, kind: kind, fn: fn}
}

// Sample is one series produced by a SampleFunc callback at collect
// time: label values in the family's declared label order, plus the
// sample value.
type Sample struct {
	// Values are the label values, matching the family's label names.
	Values []string
	// V is the sample value.
	V float64
}

// SampleFunc registers a labelled family whose whole series set is
// produced by fn at every collect — for families whose label
// combinations change over time (e.g. an exemplar trace ID per stage
// family) and would otherwise grow unbounded children. fn must return
// one Sample per series, already deterministic in order (WriteTo emits
// them exactly as returned); samples whose arity does not match labels
// are skipped. Same ownership rule as CounterFunc: registering name
// twice panics. Nil-safe on a nil registry.
func (r *Registry) SampleFunc(name, help, kind string, labels []string, fn func() []Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("obs: callback metric %q registered twice", name))
	}
	r.families[name] = &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		sfn:    fn,
	}
}

// CounterFuncVec registers (or finds) a labelled counter family whose
// series are collect-time callbacks — for per-entity monotone counters
// another subsystem maintains (e.g. per-shard store fsyncs). Bind each
// label combination once. Nil-safe on a nil registry.
func (r *Registry) CounterFuncVec(name, help string, labels ...string) *FuncVec {
	if r == nil {
		return nil
	}
	return &FuncVec{f: r.lookup(name, help, "counter", labels, nil, nil)}
}

// GaugeFuncVec registers (or finds) a labelled gauge family whose series
// are collect-time callbacks (see CounterFuncVec). Nil-safe on a nil
// registry.
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *FuncVec {
	if r == nil {
		return nil
	}
	return &FuncVec{f: r.lookup(name, help, "gauge", labels, nil, nil)}
}

// FuncVec is a labelled collect-time callback family: each bound label
// combination reads its value from its own callback at scrape time.
type FuncVec struct{ f *family }

// Bind installs fn as the series for one combination of label values, in
// the declared label-name order. Binding the same combination twice
// panics — a callback series has exactly one owner. Nil-safe: a nil vec
// (or wrong arity) ignores the bind.
func (v *FuncVec) Bind(fn func() float64, values ...string) {
	if v == nil || len(values) != len(v.f.labels) {
		return
	}
	sig := labelSig(v.f.labels, values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if _, ok := v.f.children[sig]; ok {
		panic(fmt.Sprintf("obs: callback series %s{%s} bound twice", v.f.name, sig))
	}
	v.f.children[sig] = &funcSeries{fn: fn}
}

// funcSeries is one bound callback series of a FuncVec.
type funcSeries struct{ fn func() float64 }

// Counter is a monotonically increasing value. All methods are nil-safe
// no-ops on a nil receiver and safe for concurrent use.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current value (0 on a nil receiver).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets. All methods are
// nil-safe no-ops on a nil receiver and safe for concurrent use;
// per-bucket counts are not snapshotted atomically against each other, so
// a scrape racing observations may be off by the in-flight observation —
// the usual Prometheus client behaviour.
type Histogram struct {
	upper  []float64 // sorted upper bounds, excluding +Inf
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// newHistogram builds a histogram over the given upper bounds.
func newHistogram(buckets []float64) *Histogram {
	return &Histogram{
		upper:  buckets,
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v ("le" is inclusive); the
	// final slot is +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for one combination of label values, in the
// declared label-name order. Nil-safe: nil vec (or wrong arity) returns a
// nil counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || len(values) != len(v.f.labels) {
		return nil
	}
	sig := labelSig(v.f.labels, values)
	return v.f.child(sig, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for one combination of label values (see
// CounterVec.With).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || len(values) != len(v.f.labels) {
		return nil
	}
	sig := labelSig(v.f.labels, values)
	return v.f.child(sig, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// labelSig renders one label combination as the exposition-format label
// body (`k1="v1",k2="v2"`), which doubles as the child map key.
func labelSig(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteTo renders the registry in the Prometheus text format: families
// sorted by name, series sorted by label signature — byte-deterministic
// for a fixed set of observations. Implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.write(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ServeHTTP serves the exposition, making the registry mountable at
// GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}

// write renders one family.
func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	if f.fn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
		return err
	}
	if f.sfn != nil {
		for _, s := range f.sfn() {
			if len(s.Values) != len(f.labels) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(f.name, labelSig(f.labels, s.Values)), formatValue(s.V)); err != nil {
				return err
			}
		}
		return nil
	}
	f.mu.Lock()
	sigs := make([]string, 0, len(f.children))
	for sig := range f.children {
		sigs = append(sigs, sig)
	}
	children := make([]any, 0, len(sigs))
	sort.Strings(sigs)
	for _, sig := range sigs {
		children = append(children, f.children[sig])
	}
	f.mu.Unlock()
	for i, sig := range sigs {
		if err := writeChild(w, f.name, sig, children[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeChild renders one series (or one histogram's series set).
func writeChild(w io.Writer, name, sig string, c any) error {
	switch m := c.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(name, sig), formatValue(m.Value()))
		return err
	case *funcSeries:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(name, sig), formatValue(m.fn()))
		return err
	case *Histogram:
		var cum uint64
		for i := range m.counts {
			le := "+Inf"
			if i < len(m.upper) {
				le = formatValue(m.upper[i])
			}
			cum += m.counts[i].Load()
			leSig := sig
			if leSig != "" {
				leSig += ","
			}
			leSig += `le="` + le + `"`
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", leSig), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", sig), formatValue(math.Float64frombits(m.sum.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", sig), m.count.Load())
		return err
	default:
		return fmt.Errorf("obs: unknown child type %T for %s", c, name)
	}
}

// seriesName joins a family name with a label signature.
func seriesName(name, sig string) string {
	if sig == "" {
		return name
	}
	return name + "{" + sig + "}"
}

// formatValue renders a sample value the way Prometheus clients do.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// countWriter counts the bytes written through it (for WriteTo's return).
type countWriter struct {
	w io.Writer
	n int64
}

// Write implements io.Writer.
func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
