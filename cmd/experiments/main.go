// Command experiments regenerates the experiment tables E1-E8, E11 and
// E13: the paper's claims C1-C3 (E1, E2, E4, E5), the platform behaviours
// of §2, and the monolithic-vs-sharded publication comparison.
//
// Usage:
//
//	experiments [-users 50] [-days 14] [-seed 1] [-only E1,E4]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"apisense/internal/exp"
)

func main() {
	// SIGINT/SIGTERM cancel the run: the current experiment is abandoned
	// at its next cancellation point and no further tables are started.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	users := fs.Int("users", exp.DefaultUsers, "workload users")
	days := fs.Int("days", exp.DefaultDays, "workload days")
	seed := fs.Uint64("seed", 1, "workload seed")
	only := fs.String("only", "", "comma-separated experiment ids to run (default all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runners := []struct {
		id  string
		run func(context.Context, *exp.Workload) (*exp.Table, error)
	}{
		{"E1", exp.E1POIRecovery},
		{"E2", exp.E2SpeedSmoothing},
		{"E3", exp.E3Linkage},
		{"E4", exp.E4CrowdedPlaces},
		{"E5", exp.E5Traffic},
		{"E6", exp.E6Frontier},
		{"E7", exp.E7Selection},
		{"E8", func(ctx context.Context, w *exp.Workload) (*exp.Table, error) {
			return exp.E8Platform(ctx, w, []int{10, 25, 50})
		}},
		{"E11", exp.E11Filters},
		{"E13", exp.E13Sharding},
	}
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.id
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return fmt.Errorf("-only: unknown experiment %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		selected[id] = true
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	fmt.Printf("workload: %d users x %d days, seed %d\n\n", *users, *days, *seed)
	start := time.Now()
	w, err := exp.NewWorkload(*seed, *users, *days)
	if err != nil {
		return err
	}
	fmt.Printf("generated %s in %s\n\n", w.Raw.Summarize(), time.Since(start).Round(time.Millisecond))

	for _, r := range runners {
		if !want(r.id) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		tab, err := r.run(ctx, w)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("  (%s in %s)\n\n", r.id, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
