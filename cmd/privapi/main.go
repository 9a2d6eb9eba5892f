// Command privapi is the PRIVAPI command-line tool: it anonymises a
// mobility dataset with a fixed mechanism, or runs the full utility-driven
// strategy selection.
//
// Usage:
//
//	privapi protect -in traces.csv -out protected.csv -mechanism smoothing:eps=100
//	privapi publish -in traces.csv -out release.csv -objective crowded-places -floor 0.33
//	privapi publish -in traces.csv -out release.csv -pseudonym-key-file release.key
//	privapi publish -in traces.csv -out release.csv -shard-by window -shards 7
//	privapi publish -in traces.csv -out release.csv -shard-by cell:size=1500
//	privapi analyze -in traces.csv
//
// A release's pseudonyms are HMACs of the user IDs under a secret key.
// publish draws a fresh 32-byte key from crypto/rand for every run, so two
// releases share no pseudonym; -pseudonym-key-file names a file whose
// bytes (verbatim) are the key instead, for releases that must be
// reproducible or linkable. The key is never printed.
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"apisense/internal/core"
	"apisense/internal/evalcache"
	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel the pipeline context: a long publication is
	// abandoned at the next trajectory/strategy boundary instead of
	// running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "privapi:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: privapi <protect|publish|analyze> [flags]")
	}
	switch args[0] {
	case "protect":
		return runProtect(ctx, args[1:])
	case "publish":
		return runPublish(ctx, args[1:])
	case "analyze":
		return runAnalyze(ctx, args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want protect, publish or analyze)", args[0])
	}
}

func loadDataset(path string) (*trace.Dataset, geo.Point, error) {
	ds, err := trace.LoadCSVFile(path)
	if err != nil {
		return nil, geo.Point{}, err
	}
	origin := geo.Point{Lat: 45.7640, Lon: 4.8357}
	if box, ok := ds.BBox(); ok {
		origin = box.Center()
	}
	return ds, origin, nil
}

func runProtect(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("privapi protect", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV dataset")
	out := fs.String("out", "protected.csv", "output CSV path")
	spec := fs.String("mechanism", "smoothing:eps=100", "mechanism spec (see lppm.FromSpec)")
	keyFile := fs.String("pseudonym-key-file", "", "file holding the pseudonymisation key (empty = no pseudonymisation)")
	parallelism := fs.Int("parallelism", 0, "worker goroutines (0 = one per CPU)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ds, _, err := loadDataset(*in)
	if err != nil {
		return err
	}
	m, err := lppm.FromSpec(*spec)
	if err != nil {
		return err
	}
	prot, err := lppm.ProtectDatasetContext(ctx, m, ds, *parallelism)
	if err != nil {
		return err
	}
	if *keyFile != "" {
		key, err := pseudonymKey(*keyFile)
		if err != nil {
			return err
		}
		p, err := trace.NewPseudonymizer(key)
		if err != nil {
			return err
		}
		prot = p.Apply(prot)
	}
	if err := trace.SaveCSVFile(*out, prot); err != nil {
		return err
	}
	fmt.Printf("protected with %s: %s -> %s (%s)\n", m.Name(), *in, *out, prot.Summarize())
	return nil
}

func parseObjective(s string) (core.Objective, error) {
	switch s {
	case "crowded-places":
		return core.ObjectiveCrowdedPlaces, nil
	case "traffic":
		return core.ObjectiveTraffic, nil
	case "distortion":
		return core.ObjectiveDistortion, nil
	default:
		return 0, fmt.Errorf("unknown objective %q (want crowded-places, traffic or distortion)", s)
	}
}

// shardPolicy resolves the -shard-by/-shards flags into a core.ShardBy.
// by may be a bare policy name ("cell", "window", "user") or a full spec
// ("cell:size=1500"); with a bare name and shards > 0 the parameters are
// derived from the dataset so that roughly that many shards result.
func shardPolicy(ds *trace.Dataset, by string, shards int) (core.ShardBy, error) {
	if strings.Contains(by, ":") || shards <= 0 {
		return core.ShardPolicyFromSpec(by)
	}
	switch by {
	case "cell":
		box, ok := ds.BBox()
		if !ok {
			return nil, fmt.Errorf("cannot derive shard cell size from an empty dataset")
		}
		width := geo.Distance(geo.Point{Lat: box.MinLat, Lon: box.MinLon}, geo.Point{Lat: box.MinLat, Lon: box.MaxLon})
		height := geo.Distance(geo.Point{Lat: box.MinLat, Lon: box.MinLon}, geo.Point{Lat: box.MaxLat, Lon: box.MinLon})
		size := math.Sqrt(width * height / float64(shards))
		if size < 1 {
			size = 1
		}
		return core.NewShardByCell(size)
	case "window":
		start, end, ok := ds.TimeSpan()
		if !ok {
			return nil, fmt.Errorf("cannot derive shard window from an empty dataset")
		}
		window := end.Sub(start) / time.Duration(shards)
		if window < time.Hour {
			window = time.Hour
		}
		return core.NewShardByWindow(window)
	case "user":
		return core.NewShardByUser(shards)
	default:
		return nil, fmt.Errorf("unknown shard policy %q (want cell, window or user)", by)
	}
}

func runPublish(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("privapi publish", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV dataset")
	out := fs.String("out", "release.csv", "output CSV path")
	objectiveName := fs.String("objective", "crowded-places", "utility objective")
	floor := fs.Float64("floor", 0.33, "privacy floor (max POI exposure f1)")
	keyFile := fs.String("pseudonym-key-file", "", "file holding the pseudonymisation key (empty = a fresh random key per run)")
	parallelism := fs.Int("parallelism", 0, "evaluation workers (0 = one per CPU)")
	shardBy := fs.String("shard-by", "", "shard policy: cell, window, user, or a spec like cell:size=1500 (empty = monolithic)")
	shards := fs.Int("shards", 0, "target shard count for a bare -shard-by policy (0 = policy defaults)")
	cacheMB := fs.Int("cache-mb", 0, "evaluation cache bound in MiB (0 = caching disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ds, origin, err := loadDataset(*in)
	if err != nil {
		return err
	}
	objective, err := parseObjective(*objectiveName)
	if err != nil {
		return err
	}
	key, err := pseudonymKey(*keyFile)
	if err != nil {
		return err
	}
	cache := newCache(*cacheMB)
	mw, err := core.New(core.Config{
		Objective:      objective,
		MaxPOIExposure: *floor,
		PseudonymKey:   key,
		Parallelism:    *parallelism,
		Cache:          cache,
	}, origin)
	if err != nil {
		return err
	}
	defer printCacheStats(cache)

	if *shardBy != "" {
		if strings.HasPrefix(*shardBy, "window") {
			// CSV loading merges each user's records into one long
			// trajectory; window sharding keys on the first record, so
			// split back into calendar days first (the paper's trajectory
			// unit) or every trajectory lands in the first window.
			ds = ds.SplitDays(time.UTC)
		}
		policy, err := shardPolicy(ds, *shardBy, *shards)
		if err != nil {
			return err
		}
		release, sel, err := mw.PublishShardedContext(ctx, ds, policy)
		printShardedSelection(sel)
		if err != nil {
			return err
		}
		if err := trace.SaveCSVFile(*out, release); err != nil {
			return err
		}
		fmt.Printf("published %s -> %s across %d shards (%s)\n", *in, *out, len(sel.Shards), release.Summarize())
		return nil
	}

	release, sel, err := mw.PublishContext(ctx, ds)
	if err != nil {
		printSelection(sel)
		return err
	}
	printSelection(sel)
	if err := trace.SaveCSVFile(*out, release); err != nil {
		return err
	}
	fmt.Printf("published %s -> %s with %s (%s)\n", *in, *out, sel.Chosen, release.Summarize())
	return nil
}

func runAnalyze(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("privapi analyze", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV dataset")
	parallelism := fs.Int("parallelism", 0, "evaluation workers (0 = one per CPU)")
	cacheMB := fs.Int("cache-mb", 0, "evaluation cache bound in MiB (0 = caching disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	ds, origin, err := loadDataset(*in)
	if err != nil {
		return err
	}
	mw, err := core.New(core.Config{Parallelism: *parallelism, Cache: newCache(*cacheMB)}, origin)
	if err != nil {
		return err
	}
	evals, err := mw.EvaluateContext(ctx, ds)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %8s %8s %8s %9s %9s %8s\n",
		"strategy", "recall", "prec", "f1", "hotspots", "traffic", "floor")
	for _, ev := range evals {
		floor := "no"
		if ev.MeetsFloor {
			floor = "yes"
		}
		fmt.Printf("%-28s %7.1f%% %7.1f%% %8.3f %9.3f %9.3f %8s\n",
			ev.Strategy,
			ev.Privacy.Recall()*100, ev.Privacy.Precision()*100, ev.Privacy.F1(),
			ev.HotspotOverlap, ev.TrafficUtility, floor)
	}
	return nil
}

// pseudonymKey reads the key file at path, or draws a fresh 32-byte key
// from crypto/rand when path is empty.
func pseudonymKey(path string) ([]byte, error) {
	if path == "" {
		key := make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return nil, fmt.Errorf("draw pseudonym key: %w", err)
		}
		return key, nil
	}
	key, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read pseudonym key: %w", err)
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("pseudonym key file %s is empty", path)
	}
	return key, nil
}

// newCache sizes the optional evaluation cache; a typed nil interface must
// not reach core.Config.Cache, so disabled caching returns a plain nil.
func newCache(mb int) evalcache.Cache {
	if mb <= 0 {
		return nil
	}
	return evalcache.NewLRU(int64(mb) << 20)
}

func printCacheStats(cache evalcache.Cache) {
	if cache == nil {
		return
	}
	st := cache.Stats()
	fmt.Printf("evaluation cache: entries=%d bytes=%d hits=%d misses=%d evictions=%d pruned=%d\n",
		st.Entries, st.Bytes, st.Hits, st.Misses, st.Evictions, st.Pruned)
}

func printSelection(sel *core.Selection) {
	if sel == nil {
		return
	}
	fmt.Printf("objective=%s floor=%.2f candidates=%d\n",
		sel.Objective, sel.Floor, len(sel.Evaluations))
	for _, ev := range sel.Evaluations {
		marker := " "
		if ev.Strategy == sel.Chosen {
			marker = "*"
		}
		fmt.Printf(" %s %-28s exposure=%.3f utility=%.3f released=%d\n",
			marker, ev.Strategy, ev.Privacy.F1(), ev.Utility, ev.Released)
	}
}

func printShardedSelection(sel *core.ShardedSelection) {
	if sel == nil {
		return
	}
	fmt.Printf("objective=%s floor=%.2f policy=%s shards=%d\n",
		sel.Objective, sel.Floor, sel.Policy, len(sel.Shards))
	for _, sh := range sel.Shards {
		chosen := sh.Chosen
		if chosen == "" {
			chosen = "(withheld: none meets floor)"
		}
		fmt.Printf("  %-32s traj=%-5d %-28s exposure=%.3f utility=%.3f\n",
			sh.Key, sh.Trajectories, chosen, sh.Exposure, sh.Utility)
	}
	fmt.Printf("  worst-shard exposure=%.3f (%s) weighted-utility=%.3f released=%d withheld=%d\n",
		sel.WorstExposure, sel.WorstShard, sel.Utility, sel.Released, sel.Withheld)
}
