package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestWriteToDeterministicOrdering: exposition output is byte-identical
// across repeated writes and independent of registration or observation
// order — families sort by name, series by label signature.
func TestWriteToDeterministicOrdering(t *testing.T) {
	build := func(flip bool) string {
		r := NewRegistry()
		// Register in two different orders.
		if flip {
			r.CounterVec("zz_total", "last alphabetically", "k").With("z").Inc()
			v := r.CounterVec("aa_by_label_total", "first alphabetically", "k")
			v.With("b").Add(2)
			v.With("a").Inc()
		} else {
			v := r.CounterVec("aa_by_label_total", "first alphabetically", "k")
			v.With("a").Inc()
			v.With("b").Add(2)
			r.CounterVec("zz_total", "last alphabetically", "k").With("z").Inc()
		}
		r.GaugeFunc("mm_gauge", "middle", func() float64 { return 7 })
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := build(false), build(true)
	if a != b {
		t.Errorf("output depends on registration order:\n%s\nvs\n%s", a, b)
	}
	wantOrder := []string{"aa_by_label_total", "mm_gauge", "zz_total"}
	last := -1
	for _, name := range wantOrder {
		i := strings.Index(a, "# HELP "+name)
		if i < 0 {
			t.Fatalf("family %s missing:\n%s", name, a)
		}
		if i < last {
			t.Errorf("family %s out of order", name)
		}
		last = i
	}
	if !strings.Contains(a, `aa_by_label_total{k="a"} 1`) ||
		!strings.Contains(a, `aa_by_label_total{k="b"} 2`) {
		t.Errorf("labelled series wrong:\n%s", a)
	}
	ai, bi := strings.Index(a, `{k="a"}`), strings.Index(a, `{k="b"}`)
	if ai > bi {
		t.Error("series not sorted by label signature")
	}
}

// TestHistogramBuckets drives a histogram with known observations and
// checks the cumulative bucket counts, sum and count of the exposition.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 102.6`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

// TestHistogramBoundaryValue: an observation exactly on an upper bound
// lands in that bucket (le is inclusive).
func TestHistogramBoundaryValue(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "boundary", []float64{1, 2})
	h.Observe(1)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `b_seconds_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in le=1 bucket:\n%s", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", `help with "quotes" and \slash`, "k").
		With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `# HELP esc_total help with "quotes" and \\slash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("depth", "current depth", func() float64 { return n })
	r.CounterFunc("seen_total", "seen", func() float64 { return 7 })
	n++
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "depth 42") || !strings.Contains(out, "seen_total 7") {
		t.Errorf("func instruments wrong:\n%s", out)
	}
}

// TestIdempotentRegistration: registering the same instrument twice with
// the same shape returns the same family; a different shape panics.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.CounterVec("twice_total", "again", "k")
	c2 := r.CounterVec("twice_total", "again", "k")
	c1.With("a").Inc()
	c2.With("a").Inc()
	if got := c1.With("a").Value(); got != 2 {
		t.Errorf("re-registered counter split state: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	r.GaugeFuncVec("twice_total", "again", "k")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every constructor and instrument is a no-op on nil.
	r.Histogram("h", "h", LatencyBuckets).Observe(1)
	r.CounterVec("cv_total", "cv", "k").With("v").Inc()
	r.HistogramVec("hv", "hv", LatencyBuckets, "k").With("v").Observe(1)
	r.CounterFunc("cf_total", "cf", func() float64 { return 1 })
	r.GaugeFunc("gf", "gf", func() float64 { return 1 })
	r.GaugeFuncVec("gfv", "gfv", "k").Bind(func() float64 { return 1 }, "v")
	// Wrong arity yields a nil child, which is also a no-op.
	r2 := NewRegistry()
	r2.CounterVec("arity_total", "a", "k").With("a", "b").Inc()
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("conc_total", "concurrent", "k").With("v")
	h := r.Histogram("conc_seconds", "concurrent", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter lost increments: %v", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("histogram lost observations: %v", got)
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("served_total", "served", func() float64 { return 3 })
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 3") {
		t.Errorf("body missing series:\n%s", rec.Body.String())
	}
}

func TestFormatValue(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("inf_gauge", "inf", func() float64 { return math.Inf(1) })
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "inf_gauge +Inf") {
		t.Errorf("infinity not rendered as +Inf:\n%s", b.String())
	}
}

// TestFuncVec: labelled callback series render per bound combination,
// sorted by label signature, reading their callbacks at collect time.
func TestFuncVec(t *testing.T) {
	r := NewRegistry()
	shards := []float64{7, 3}
	v := r.CounterFuncVec("shard_fsyncs_total", "per-shard fsyncs", "shard")
	for i := range shards {
		i := i
		v.Bind(func() float64 { return shards[i] }, strconv.Itoa(i))
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`shard_fsyncs_total{shard="0"} 7`, `shard_fsyncs_total{shard="1"} 3`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Live: the callback is re-read every collect.
	shards[0] = 9
	b.Reset()
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `shard_fsyncs_total{shard="0"} 9`) {
		t.Errorf("callback not re-read at collect:\n%s", b.String())
	}

	// Rebinding a bound combination panics — one owner per series.
	defer func() {
		if recover() == nil {
			t.Error("duplicate Bind did not panic")
		}
	}()
	v.Bind(func() float64 { return 0 }, "0")
}

// TestFuncVecNilSafe: a nil vec and wrong arity are ignored, matching
// the other nil-safe instruments.
func TestFuncVecNilSafe(t *testing.T) {
	var v *FuncVec
	v.Bind(func() float64 { return 1 }, "x") // must not panic
	r := NewRegistry()
	v2 := r.GaugeFuncVec("wrong_arity", "gauge", "a", "b")
	v2.Bind(func() float64 { return 1 }, "only-one") // arity mismatch: ignored
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "only-one") {
		t.Errorf("arity-mismatched bind rendered:\n%s", b.String())
	}
}
