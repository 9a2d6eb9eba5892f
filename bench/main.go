// Command bench is the repository's benchmark: four workloads that drive
// the platform path (device uploads into a durable Hive) and the
// publication path (PRIVAPI's strategy selection) end to end, a traced run
// that attributes each workload's time to layers, and a comparison of two
// sets of runs against the bounds fixed in BENCHMARK.json. See README.md.
//
// Usage:
//
//	bench -workload NAME -seed N [-seconds S] [-trace 0|1] [-quick]
//	      one run of one workload; the last line of standard output is the
//	      result object BENCHMARK.json's contract describes
//	bench -seed N -out results.json [-runs R] [-seconds S] [-quick]
//	      every workload, untraced then traced, each in its own child
//	      process, one after another; R sets of them
//	bench -compare A.json B.json
//	      one row per workload and end-to-end metric: ok, worse or
//	      unresolved against the metric's bound
//	bench -manifest
//	      print BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	//lint:allow ctxflow the benchmark is a main package outside cmd/: it roots the one context every run derives from
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and print its result line")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", runSeconds, "nominal length of the timed section; operation counts scale with it")
	traced := fs.Int("trace", 0, "0: tracing off, end-to-end metrics; 1: untraced and traced passes plus the layer ladder, per-layer metrics")
	quick := fs.Bool("quick", false, "counts / 20 on a small dataset: a smoke run, no calibrated figure")
	out := fs.String("out", "", "run every workload and write the set of runs to this file")
	runs := fs.Int("runs", 1, "with -out: how many sets of runs to make")
	compare := fs.Bool("compare", false, "compare two files written by -out")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *printManifest:
		m, err := manifest()
		if err != nil {
			return fail(err)
		}
		stdout.Write(m)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		if *seconds < 1 || *traced < 0 || *traced > 1 {
			return fail(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
		}
		o := runOpts{seed: *seed, seconds: *seconds, traced: *traced == 1, quick: *quick, scratch: scratchRoot, log: stderr}
		res, err := runWorkload(ctx, w, o)
		if err != nil {
			return fail(err)
		}
		if err := res.print(stdout, stderr); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return 1
		}
		return 0
	case *out != "":
		if err := runSets(ctx, *out, *runs, *seed, *seconds, *quick, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	fs.Usage()
	return 2
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	detail detail
}

// detail is printed on the line before the result: what a reader needs to
// judge the run but which is not a metric.
type detail struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	Violations []string           `json:"violations,omitempty"`
	Missing    []string           `json:"missing,omitempty"` // per-layer metrics with no source on this run
	Notes      map[string]float64 `json:"notes,omitempty"`   // harness validity: samples, tail percentile, generator lateness, queue depth
}

// runWorkload runs w once inside a scratch directory of its own under
// o.scratch, and turns the report into the result the manifest
// promises: every end-to-end metric untraced, every per-layer metric traced.
func runWorkload(ctx context.Context, w *workload, o runOpts) (*result, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.scratch = dir

	rep, err := w.run(ctx, w, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	} else if rep.failed == 0 {
		if rep.metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	res := &result{
		Correct:   rep.failed == 0 && len(rep.violations) == 0,
		Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metric, len(defs)),
		detail: detail{
			Workload: w.name, Seed: o.seed, Traced: o.traced,
			Violations: rep.violations, Missing: rep.missing, Notes: rep.notes,
		},
	}
	for _, d := range defs {
		v := rep.metrics[d.Name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a percentile that landed on a failed operation
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// scratchRoot holds what runs write (stores, CSV files); it sits in the
// current directory because a run may write nowhere else.
const scratchRoot = ".bench_work"

// print writes the human-readable table to log and the detail and result
// lines to out.
func (r *result) print(out, log io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(log, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, v := range r.detail.Violations {
		fmt.Fprintln(log, "  VIOLATION:", v)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(r.detail); err != nil {
		return err
	}
	return enc.Encode(r)
}

// setFile is what -out writes and -compare reads: R sets of runs, each
// holding every workload's untraced and traced result.
type setFile struct {
	Seed       uint64   `json:"seed"`
	Seconds    int      `json:"seconds"`
	Quick      bool     `json:"quick,omitempty"`
	GoVersion  string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Sets       []runSet `json:"sets"`
}

// runSet maps workload name to its pair of runs.
type runSet map[string]workloadRuns

type workloadRuns struct {
	EndToEnd result   `json:"end_to_end"`
	PerLayer result   `json:"per_layer"`
	Details  []detail `json:"details"`
}

// runSets makes `runs` sets of runs. Each run is a child process of this
// same binary, started only after the previous one has exited, so peak RSS
// and heap state belong to one workload.
func runSets(ctx context.Context, path string, runs int, seed uint64, seconds int, quick bool, log io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := setFile{
		Seed: seed, Seconds: seconds, Quick: quick,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for k := 0; k < runs; k++ {
		set := make(runSet)
		for _, w := range workloads {
			var wr workloadRuns
			for _, traced := range []int{0, 1} {
				args := []string{
					"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced),
				}
				if quick {
					args = append(args, "-quick")
				}
				res, det, err := runChild(ctx, exe, args, log)
				if err != nil {
					return fmt.Errorf("set %d, %s, trace %d: %w", k, w.name, traced, err)
				}
				if traced == 1 {
					wr.PerLayer = res
				} else {
					wr.EndToEnd = res
				}
				wr.Details = append(wr.Details, det)
			}
			set[w.name] = wr
		}
		file.Sets = append(file.Sets, set)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChild runs one workload in a child process and parses the last two
// lines of its standard output.
func runChild(ctx context.Context, exe string, args []string, log io.Writer) (result, detail, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = log
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, detail{}, fmt.Errorf("%s %s: %w", filepath.Base(exe), strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if len(lines) < 2 {
		return result{}, detail{}, errors.New("child printed no result")
	}
	var res result
	var det detail
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
		return result{}, detail{}, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, detail{}, fmt.Errorf("result line: %w", err)
	}
	return res, det, nil
}
