// Command devicesim simulates a fleet of mobile devices against a running
// Hive: it registers the devices, polls their assigned tasks, executes the
// task scripts over synthetic mobility, and uploads the results. Results
// are buffered and flushed to the Hive's batch endpoint in groups of
// -batch uploads; when the Hive's ingest queue pushes back with 429 the
// flush retries with jittered backoff. By default each device executes a
// task once; -repeat re-executes assigned tasks on every poll, producing
// sustained multi-task ingest (useful for exercising a store with several commit shards).
//
// With -metrics ADDR the simulator serves its own Prometheus text
// endpoint (fleet size, executed tasks, accepted/rejected uploads,
// backpressure retries) so a scrape sees both sides of an ingestion
// experiment.
//
// Usage (with a Hive running on :8080):
//
//	devicesim -hive http://127.0.0.1:8080 -devices 20 -days 1 -wait 30s -batch 8
//	          [-metrics :9090]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"apisense/internal/device"
	"apisense/internal/mobgen"
	"apisense/internal/obs"
	"apisense/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "devicesim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("devicesim", flag.ContinueOnError)
	hiveURL := fs.String("hive", "http://127.0.0.1:8080", "hive base URL")
	n := fs.Int("devices", 20, "number of simulated devices")
	days := fs.Int("days", 1, "days of movement per device")
	seed := fs.Uint64("seed", 1, "mobility seed")
	wait := fs.Duration("wait", 30*time.Second, "how long to poll for tasks")
	poll := fs.Duration("poll", 2*time.Second, "task poll interval")
	batch := fs.Int("batch", 8, "uploads buffered per batch flush")
	repeat := fs.Bool("repeat", false, "re-execute assigned tasks every poll instead of once per device (sustained ingest load)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus text metrics on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fleet-side counters, exported when -metrics is set. Atomics so the
	// scrape handler can read them while the drive loop writes; retries is
	// a snapshot of uploader.Retries taken on the drive goroutine, which
	// owns the uploader.
	var accepted, rejected, executedTotal, retries atomic.Int64

	ds, city, err := mobgen.Generate(mobgen.Config{Seed: *seed, Users: *n, Days: *days})
	if err != nil {
		return err
	}
	byUser := ds.ByUser()
	client := transport.NewClient(*hiveURL)
	ctx := context.Background()

	var devices []*device.Device
	for _, res := range city.Residents {
		d, err := device.New(device.Config{
			ID: res.User + "-phone", User: res.User, Movement: byUser[res.User][0],
		})
		if err != nil {
			return err
		}
		if err := client.Do(ctx, http.MethodPost, "/api/devices", d.Info(), nil); err != nil {
			return fmt.Errorf("register %s: %w", d.ID(), err)
		}
		devices = append(devices, d)
	}
	log.Printf("registered %d devices with %s", len(devices), *hiveURL)

	uploader := device.NewBatchUploader(client, device.UploaderConfig{
		BatchSize: *batch,
		Seed:      int64(*seed),
	})
	logFlush := func(resp *transport.UploadBatchResponse) {
		if resp != nil && len(resp.Results) > 0 {
			accepted.Add(int64(resp.Accepted))
			rejected.Add(int64(resp.Rejected))
			log.Printf("flushed batch: %d accepted, %d rejected (%d backpressure retries so far)",
				resp.Accepted, resp.Rejected, uploader.Retries)
		}
		retries.Store(int64(uploader.Retries))
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntime(reg)
		obs.RegisterBuildInfo(reg)
		reg.GaugeFunc("devicesim_devices",
			"Simulated devices registered with the Hive.",
			func() float64 { return float64(len(devices)) })
		reg.CounterFunc("devicesim_tasks_executed_total",
			"Task instances executed across the fleet.",
			func() float64 { return float64(executedTotal.Load()) })
		reg.CounterFunc("devicesim_uploads_accepted_total",
			"Uploads the Hive accepted from this fleet.",
			func() float64 { return float64(accepted.Load()) })
		reg.CounterFunc("devicesim_uploads_rejected_total",
			"Uploads the Hive rejected from this fleet.",
			func() float64 { return float64(rejected.Load()) })
		reg.CounterFunc("devicesim_backpressure_retries_total",
			"Batch flushes resubmitted after a 429 from the Hive.",
			func() float64 { return float64(retries.Load()) })
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg)
		srv := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("metrics: serving GET /metrics on %s", *metricsAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		defer srv.Close()
	}
	done := make(map[string]bool) // deviceID/taskID pairs already executed (ignored with -repeat)
	deadline := time.Now().Add(*wait)
	for time.Now().Before(deadline) {
		executed := 0
		for _, d := range devices {
			var tasks []transport.TaskSpec
			if err := client.Do(ctx, http.MethodGet, "/api/devices/"+d.ID()+"/tasks", nil, &tasks); err != nil {
				log.Printf("poll %s: %v", d.ID(), err)
				continue
			}
			for _, spec := range tasks {
				key := d.ID() + "/" + spec.ID
				if !*repeat && done[key] {
					continue
				}
				done[key] = true
				res, err := d.RunTask(spec)
				if err != nil {
					log.Printf("device %s task %s: %v", d.ID(), spec.ID, err)
					continue
				}
				resp, err := uploader.Add(ctx, res.Upload)
				if err != nil {
					log.Printf("upload %s: %v", d.ID(), err)
					continue
				}
				logFlush(resp)
				executed++
				executedTotal.Add(1)
				log.Printf("device %s executed %s: %d records (%d filtered), battery %.1f%%",
					d.ID(), spec.ID, len(res.Upload.Records), res.Dropped, d.Battery().Level())
			}
		}
		if executed == 0 {
			time.Sleep(*poll)
		}
	}
	resp, err := uploader.Flush(ctx)
	if err != nil {
		log.Printf("final flush: %v", err)
	} else {
		logFlush(resp)
	}
	log.Printf("done: executed %d task instances", executedTotal.Load())
	return nil
}
