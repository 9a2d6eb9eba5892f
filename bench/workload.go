package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs. Operation counts are
// fixed (opsPerSecond times the run's nominal seconds), not durations, so
// the state a run leaves behind — cache contents, store size — is the same
// on both sides of a comparison.
type workload struct {
	name string
	why  string
	// opsPerSecond is calibrated on the 2-core reference box so that the
	// timed section lasts about the nominal run length.
	opsPerSecond float64
	// tail fixes the percentile op_tail_ms reports; 0 leaves it to
	// tailPercentile, the highest with ten samples beyond it.
	tail float64
	run  func(ctx context.Context, w *workload, o runOpts) (*report, error)

	// publication workloads
	policy string // shard policy spec
	cache  bool   // evalcache on, warmed by a base publication during set-up

	// ingest workloads
	uploads       int           // per batch
	records       int           // per upload
	interval      time.Duration // open loop: one batch per interval; 0 = closed loop
	segmentBytes  int64
	snapshotEvery int
}

// The dataset every workload draws from, and its quick-mode stand-in.
const (
	datasetUsers, datasetDays           = 16, 6
	quickDatasetUsers, quickDatasetDays = 4, 2
)

const (
	conns    = 2 // load-generating connections on the ingest workloads
	warmups  = 3 // untimed publications before the first timed one
	restarts = 5 // restarts per run; restart_ms is their median

	// setup_s is the median of at least minSetups set-ups per run; a cheap
	// set-up (the ingest workloads' 40 ms is mostly 68 fsyncs, whose latency
	// swings by half) is repeated until setupBudget is spent or maxSetups
	// are done.
	minSetups   = 5
	maxSetups   = 15
	setupBudget = time.Second
)

// timeSetups runs setup repeatedly — once on a traced run, which reports no
// setup_s, and minSetups times on a quick one — and returns how long each
// took. discard, which is not timed,
// disposes of the previous set-up's result before the next one replaces it.
func timeSetups(o runOpts, setup, discard func() error) ([]time.Duration, error) {
	var took []time.Duration
	var total time.Duration
	for k := 0; k < maxSetups; k++ {
		if k > 0 {
			if o.traced || (k >= minSetups && (o.quick || total >= setupBudget)) {
				break
			}
			if err := discard(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0))
		total += took[k]
	}
	return took, nil
}

var workloads = []*workload{
	{
		name: "publish_cold",
		why:  "closed loop, one caller, no cache: every publication re-runs lppm, the POI attack and the utility metrics under core's fan-out",
		run:  runPublication, opsPerSecond: 5.25, policy: "window:dur=36h",
	},
	{
		name: "republish_warm",
		why:  "closed loop, one caller, evalcache warm, 2 of 16 users changed per publication: content hashing and cache reads dominate, the attack does little",
		run:  runPublication, opsPerSecond: 50, policy: "user:buckets=32", cache: true,
	},
	{
		name: "ingest_paced",
		why:  "open loop, 55 batches/s of 8 uploads x 20 GPS records: bytes-bound, JSON encode/decode and snapshot folds dominate, fsync does little",
		run:  runIngest, opsPerSecond: 55, interval: time.Second / 55, tail: 90,
		uploads: 8, records: 20, segmentBytes: 1 << 20, snapshotEvery: 4,
	},
	{
		name: "ingest_small",
		why:  "closed loop, 2 connections, batches of 8 one-record uploads: per-request overhead (HTTP, queue hand-off, locking, one fsync per group commit) dominates",
		run:  runIngest, opsPerSecond: 1200,
		uploads: 8, records: 1, segmentBytes: 4 << 20, snapshotEvery: 4,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runOpts are the driver's arguments for one run of one workload.
type runOpts struct {
	seed    uint64
	seconds int
	traced  bool
	quick   bool      // counts / 20 and a small dataset: smoke runs only
	scratch string    // directory the run makes its own scratch directory in
	log     io.Writer // human-readable progress and the metric table
}

// ops is the number of timed operations of a run (of each pass, on a
// traced run, which measures an untraced and a traced pass of half length).
func (w *workload) ops(o runOpts) int {
	n := w.opsPerSecond * float64(o.seconds)
	if o.quick {
		n /= 20
	}
	if o.traced {
		n /= 2
	}
	return max(int(math.Round(n)), conns)
}

func (o runOpts) dataset() (*pubData, error) {
	if o.quick {
		return genPubData(o.seed, quickDatasetUsers, quickDatasetDays)
	}
	return genPubData(o.seed, datasetUsers, datasetDays)
}

// report is what one run of one workload found.
type report struct {
	attempted, failed int
	violations        []string           // correctness-gate failures
	metrics           map[string]float64 // by metric name
	missing           []string           // per-layer metrics with no source on this run
	notes             map[string]float64 // harness-validity figures, not metrics
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), notes: make(map[string]float64)}
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// latencyFigures reads the samples of a timed loop into the report: attempt
// and failure counts and the two latency percentiles.
func (r *report) latencyFigures(w *workload, samples []sample) {
	var lat []float64
	for i, s := range samples {
		r.attempted++
		if s.err != nil {
			if r.failed == 0 {
				r.notes["first_failed_op"] = float64(i)
				r.violate("operation %d failed: %v", i, s.err)
			}
			r.failed++
			continue
		}
		lat = append(lat, ms(s.latency()))
	}
	sort.Float64s(lat)
	tail := w.tail
	if tail == 0 {
		tail = tailPercentile(len(samples))
	}
	if tail == 0 {
		tail = 100 // too few samples for a percentile with ten beyond it
	}
	r.notes["samples"] = float64(len(samples))
	r.notes["tail_percentile"] = tail
	for _, p := range []float64{90, 99, 100} {
		r.notes[fmt.Sprintf("latency_p%g_ms", p)] = percentile(lat, 0, p)
	}
	r.metrics["op_p50_ms"] = percentile(lat, r.failed, 50)
	r.metrics["op_tail_ms"] = percentile(lat, r.failed, tail)
}

// absorbTraced takes the traced pass's counts and gate results into r, the
// report of the run (whose latency figures are the untraced pass's), and
// records what tracing cost: the traced median latency over the untraced
// one. It returns the traced median, and false when a traced operation
// failed.
func (r *report) absorbTraced(traced *report) (tracedP50 float64, ok bool) {
	r.attempted += traced.attempted
	r.failed += traced.failed
	r.violations = append(r.violations, traced.violations...)
	tracedP50 = traced.metrics["op_p50_ms"]
	r.metrics["otrace.overhead_share"] = tracedP50/r.metrics["op_p50_ms"] - 1
	return tracedP50, traced.failed == 0
}

// spanSelf records a span name's self time per operation, in ms, or marks
// the metric missing when the program emitted no such span.
func (r *report) spanSelf(metricName string, totals map[string]spanTotals, spanName string, ops int) {
	t, ok := totals[spanName]
	if !ok {
		r.missing = append(r.missing, metricName)
		return
	}
	r.metrics[metricName] = ms(t.self) / float64(ops)
}

// ladderFigures runs every rung reps times under the benchmark's own spans
// and records the median time of one call, in ms, under the rung's name.
func (r *report) ladderFigures(rungs []rung, reps int) error {
	rec := &recorder{now: time.Now}
	err := rec.record("ladder", "", func(root string) error {
		for _, rg := range rungs {
			for k := 0; k < reps; k++ {
				err := rec.record(rg.name, root, func(string) error {
					for i := 0; i < rg.inner; i++ {
						if err := rg.fn(); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return fmt.Errorf("ladder %s: %w", rg.name, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	totals := foldSpans(rec.spans)
	for _, rg := range rungs {
		r.metrics[rg.name] = ms(medianDuration(totals[rg.name].durs)) / float64(rg.inner)
	}
	return nil
}

// allocMB is the heap allocated between two readings, in MB.
func allocMB(before, after *runtime.MemStats) float64 {
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var sum int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			sum += info.Size()
		}
		return err
	})
	return sum, err
}

// since keeps only the spans that started at or after t: set-up and
// warm-up work is traced too, and must not count toward the timed pass.
func since(spans []span, t time.Time) []span {
	out := spans[:0]
	for _, sp := range spans {
		if !sp.start.Before(t) {
			out = append(out, sp)
		}
	}
	return out
}
