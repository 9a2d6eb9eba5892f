// Command honeycomb is the experimenter endpoint CLI: deploy a task script
// to the Hive, then collect the produced dataset and optionally publish a
// privacy-preserving release through PRIVAPI.
//
// Usage:
//
//	honeycomb deploy -hive http://127.0.0.1:8080 -script task.js -name my-exp
//	honeycomb collect -hive http://127.0.0.1:8080 -task task-0001 -out data.csv [-private]
//
// With -private every release is pseudonymised under a fresh 32-byte key
// from crypto/rand, which is never printed: two releases of the same task
// share no pseudonym.
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"apisense/internal/core"
	"apisense/internal/honeycomb"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

func main() {
	// SIGINT/SIGTERM cancel the deploy, the collect and the PRIVAPI
	// publication instead of killing the process mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "honeycomb:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: honeycomb <deploy|collect> [flags]")
	}
	switch args[0] {
	case "deploy":
		return runDeploy(ctx, args[1:])
	case "collect":
		return runCollect(ctx, args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want deploy or collect)", args[0])
	}
}

func runDeploy(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("honeycomb deploy", flag.ContinueOnError)
	hiveURL := fs.String("hive", "http://127.0.0.1:8080", "hive base URL")
	scriptPath := fs.String("script", "", "SenseScript task file")
	name := fs.String("name", "experiment", "task name")
	endpoint := fs.String("endpoint", "honeycomb-cli", "honeycomb endpoint name")
	period := fs.Int("period", 60, "sampling period in seconds")
	sensors := fs.String("sensors", "gps", "comma-separated required sensors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scriptPath == "" {
		return fmt.Errorf("-script is required")
	}
	src, err := os.ReadFile(*scriptPath)
	if err != nil {
		return fmt.Errorf("read script: %w", err)
	}
	hc, err := honeycomb.New(*endpoint, *hiveURL)
	if err != nil {
		return err
	}
	spec := transport.TaskSpec{
		Name:          *name,
		Script:        string(src),
		PeriodSeconds: *period,
		Sensors:       splitCSV(*sensors),
	}
	published, recruited, err := hc.Deploy(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("deployed %s as %s; recruited %d devices\n", *name, published.ID, len(recruited))
	return nil
}

func runCollect(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("honeycomb collect", flag.ContinueOnError)
	hiveURL := fs.String("hive", "http://127.0.0.1:8080", "hive base URL")
	taskID := fs.String("task", "", "task id to collect")
	out := fs.String("out", "collected.csv", "output CSV path")
	endpoint := fs.String("endpoint", "honeycomb-cli", "honeycomb endpoint name")
	private := fs.Bool("private", false, "publish through PRIVAPI instead of raw")
	floor := fs.Float64("floor", 0.33, "privacy floor when -private is set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *taskID == "" {
		return fmt.Errorf("-task is required")
	}
	hc, err := honeycomb.New(*endpoint, *hiveURL)
	if err != nil {
		return err
	}
	ups, err := hc.Collect(ctx, *taskID)
	if err != nil {
		return err
	}
	users, err := hc.DeviceUsers(ctx)
	if err != nil {
		return err
	}
	ds := hc.BuildDataset(*taskID, users)
	fmt.Printf("collected %d uploads: %s\n", len(ups), ds.Summarize())

	if *private {
		key := make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return fmt.Errorf("draw pseudonym key: %w", err)
		}
		release, sel, err := hc.PublishPrivateContext(ctx, ds, core.Config{
			MaxPOIExposure: *floor,
			PseudonymKey:   key,
		})
		if err != nil {
			return err
		}
		fmt.Printf("PRIVAPI selected %s\n", sel.Chosen)
		ds = release
	}
	if err := trace.SaveCSVFile(*out, ds); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
