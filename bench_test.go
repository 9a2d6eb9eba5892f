package apisense

// Benchmark harness: one testing.B benchmark per experiment table (the
// paper's claims C1-C3 and the platform behaviours of §2), plus
// micro-benchmarks of the hot paths (mechanisms, POI extraction, script
// interpretation). Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks use a reduced workload (12 users x 9 days) so a full
// sweep stays in the minutes range; cmd/experiments runs the full-size
// tables.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"apisense/internal/device"
	"apisense/internal/exp"
	"apisense/internal/hive"
	"apisense/internal/hive/store"
	"apisense/internal/ingest"
	"apisense/internal/lppm"
	"apisense/internal/mobgen"
	"apisense/internal/poi"
	"apisense/internal/script"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

var (
	benchOnce sync.Once
	benchW    *exp.Workload
)

func benchWorkload(b *testing.B) *exp.Workload {
	b.Helper()
	benchOnce.Do(func() {
		w, err := exp.NewWorkload(101, 12, 9)
		if err != nil {
			b.Fatal(err)
		}
		benchW = w
	})
	return benchW
}

func runTable(b *testing.B, run func(context.Context, *exp.Workload) (*exp.Table, error)) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(context.Background(), w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1POIRecovery regenerates Table E1 (claim C1: POI recovery under
// geo-indistinguishability).
func BenchmarkE1POIRecovery(b *testing.B) { runTable(b, exp.E1POIRecovery) }

// BenchmarkE2SpeedSmoothing regenerates Table E2 (claim C2: smoothing hides
// stops).
func BenchmarkE2SpeedSmoothing(b *testing.B) { runTable(b, exp.E2SpeedSmoothing) }

// BenchmarkE3Linkage regenerates Table E3 (POI-profile re-identification).
func BenchmarkE3Linkage(b *testing.B) { runTable(b, exp.E3Linkage) }

// BenchmarkE4CrowdedPlaces regenerates Table E4 (claim C3: crowded places).
func BenchmarkE4CrowdedPlaces(b *testing.B) { runTable(b, exp.E4CrowdedPlaces) }

// BenchmarkE5Traffic regenerates Table E5 (claim C3: traffic forecasting).
func BenchmarkE5Traffic(b *testing.B) { runTable(b, exp.E5Traffic) }

// BenchmarkE6Frontier regenerates Table E6 (privacy-utility frontier).
func BenchmarkE6Frontier(b *testing.B) { runTable(b, exp.E6Frontier) }

// BenchmarkE7Selection regenerates Table E7 (PRIVAPI optimal selection).
func BenchmarkE7Selection(b *testing.B) { runTable(b, exp.E7Selection) }

// BenchmarkE8Platform regenerates Table E8 (platform pipeline over HTTP).
func BenchmarkE8Platform(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.E8Platform(context.Background(), w, []int{5, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Filters regenerates Table E11 (device privacy layer).
func BenchmarkE11Filters(b *testing.B) { runTable(b, exp.E11Filters) }

// BenchmarkEvaluateParallel measures the PRIVAPI evaluation engine on the
// full default portfolio at parallelism 1 (the sequential baseline) and at
// one worker per CPU; the ratio of the two is the engine's speedup on the
// publication hot path.
func BenchmarkEvaluateParallel(b *testing.B) {
	w := benchWorkload(b)
	points := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		points = append(points, n)
	}
	for _, p := range points {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			mw, err := NewPrivacyMiddleware(PrivacyConfig{Parallelism: p}, w.City.Center)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mw.EvaluateContext(context.Background(), w.Raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublishSharded measures the sharded publication pipeline against
// the monolithic engine across dataset sizes. Every shard reuses the same
// bounded worker pool (the global Parallelism budget is divided between
// shards in flight), and the per-shard analysis state is much smaller than
// the monolithic one, so sharded latency grows sub-linearly with dataset
// size while monolithic latency does not. CI runs this at -benchtime=1x as
// a smoke test; the before/after figures come from `make bench`.
func BenchmarkPublishSharded(b *testing.B) {
	const days = 6
	for _, users := range []int{8, 16, 32} {
		ds, city, err := mobgen.Generate(mobgen.Config{Seed: 101, Users: users, Days: days})
		if err != nil {
			b.Fatal(err)
		}
		mw, err := NewPrivacyMiddleware(PrivacyConfig{}, city.Center)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("users=%d/monolithic", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mw.PublishContext(context.Background(), ds); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, shards := range []int{4} {
			policy, err := ShardByWindow(days * 24 / time.Duration(shards) * time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("users=%d/shards=%d", users, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := mw.PublishShardedContext(context.Background(), ds, policy); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// shiftUsers returns a deep copy of ds in which the first k distinct users
// (in sorted user order) have every record's latitude shifted by ~55 m —
// a deterministic "k users re-uploaded changed data" mutation.
func shiftUsers(b *testing.B, ds *trace.Dataset, k int) *trace.Dataset {
	b.Helper()
	users := make([]string, 0, 16)
	seen := make(map[string]bool)
	for _, tr := range ds.Trajectories {
		if !seen[tr.User] {
			seen[tr.User] = true
			users = append(users, tr.User)
		}
	}
	sort.Strings(users)
	if k > len(users) {
		b.Fatalf("cannot mutate %d of %d users", k, len(users))
	}
	changed := make(map[string]bool, k)
	for _, u := range users[:k] {
		changed[u] = true
	}
	out := ds.Clone()
	for _, tr := range out.Trajectories {
		if changed[tr.User] {
			for i := range tr.Records {
				tr.Records[i].Pos.Lat += 0.0005
			}
		}
	}
	return out
}

// BenchmarkRepublishIncremental measures incremental re-publication through
// the evaluation cache: a user-sharded dataset is published once to warm
// the cache, then k of its 12 users change their data and the dataset is
// published again — only the shards whose content changed re-run the
// selection engine. The timed section is the second publish only (the warm
// pass runs under StopTimer with a fresh cache every iteration, so warm
// sub-benchmarks never self-hit across iterations). "cold" publishes the
// same 10%-changed dataset with caching disabled; cold ns/op over
// changed=10pct ns/op is the incremental speedup CI tracks. Cached cases
// also report cache_MB, the cache's retained bytes (its cost estimate)
// after the timed publish of the last iteration.
func BenchmarkRepublishIncremental(b *testing.B) {
	w := benchWorkload(b)
	policy, err := ShardByUser(24) // ~1 user per shard at 12 users
	if err != nil {
		b.Fatal(err)
	}
	publish := func(b *testing.B, mw *PrivacyMiddleware, ds *Dataset) {
		b.Helper()
		if _, _, err := mw.PublishShardedContext(context.Background(), ds, policy); err != nil {
			b.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		k     int  // users changed since the warm publish
		cache bool // false = cold baseline on the same changed dataset
	}{
		{"cold", 1, false},
		{"changed=0pct", 0, true},
		{"changed=10pct", 1, true},
		{"changed=50pct", 6, true},
	}
	for _, tc := range cases {
		mutated := shiftUsers(b, w.Raw, tc.k)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var cache EvalCache
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := PrivacyConfig{PseudonymKey: []byte("bench")}
				if tc.cache {
					cache = NewEvalCache(0)
					cfg.Cache = cache
				}
				mw, err := NewPrivacyMiddleware(cfg, w.City.Center)
				if err != nil {
					b.Fatal(err)
				}
				if tc.cache {
					publish(b, mw, w.Raw) // warm the fresh cache
				}
				b.StartTimer()
				publish(b, mw, mutated)
			}
			if cache != nil {
				b.ReportMetric(float64(cache.Stats().Bytes)/(1<<20), "cache_MB")
			}
		})
	}
}

// BenchmarkIngestBatch measures upload ingestion throughput over HTTP into
// a journaled Hive: the per-request path (one POST /api/uploads and one
// fsync per upload) against the streaming path (one POST /api/uploads/batch
// of 100 uploads through the bounded ingest queue, one group-commit fsync
// for the whole batch). Every iteration ingests the same 100 uploads, so
// ns/op is directly comparable; the batch path amortises both the HTTP
// round-trips and the journal syncs and lands well above the 3x mark.
func BenchmarkIngestBatch(b *testing.B) {
	const batchSize = 100
	upload := transport.Upload{Records: []transport.UploadRecord{
		{Sensor: "gps", TimeMillis: 1418031000000, Data: map[string]any{"lat": 45.76, "lon": 4.83}},
	}}

	setup := func(b *testing.B, withQueue bool) (*transport.Client, transport.Upload, func()) {
		b.Helper()
		j, err := store.OpenSegmented(b.TempDir(), store.SegmentedConfig{})
		if err != nil {
			b.Fatal(err)
		}
		h, err := hive.RecoverFrom(j)
		if err != nil {
			b.Fatal(err)
		}
		h.SetMaxUploadsPerTask(0) // the bench accumulates b.N*100 uploads
		if err := h.RegisterDevice(transport.DeviceInfo{ID: "d1", User: "bench", Sensors: []string{"gps"}}); err != nil {
			b.Fatal(err)
		}
		spec, _, err := h.PublishTask(transport.TaskSpec{
			Name: "ingest-bench", Author: "bench", Script: "var x = 1;",
			PeriodSeconds: 60, Sensors: []string{"gps"},
		})
		if err != nil {
			b.Fatal(err)
		}
		var opts []hive.ServerOption
		var q *ingest.Queue
		if withQueue {
			q = ingest.New(h, ingest.Config{Capacity: 64, MaxBatch: 2 * batchSize})
			opts = append(opts, hive.WithIngestQueue(q))
		}
		srv := httptest.NewServer(hive.NewServer(h, opts...))
		up := upload
		up.TaskID, up.DeviceID = spec.ID, "d1"
		cleanup := func() {
			srv.Close()
			if q != nil {
				q.Close()
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
		}
		return transport.NewClient(srv.URL), up, cleanup
	}

	b.Run("per-request", func(b *testing.B) {
		cl, up, cleanup := setup(b, false)
		defer cleanup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batchSize; k++ {
				if err := cl.Do(context.Background(), http.MethodPost, "/api/uploads", up, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		reportUploadThroughput(b, batchSize)
	})

	b.Run(fmt.Sprintf("batch=%d", batchSize), func(b *testing.B) {
		cl, up, cleanup := setup(b, true)
		defer cleanup()
		batch := transport.UploadBatch{Uploads: make([]transport.Upload, batchSize)}
		for k := range batch.Uploads {
			batch.Uploads[k] = up
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var resp transport.UploadBatchResponse
			if err := cl.Do(context.Background(), http.MethodPost, "/api/uploads/batch", batch, &resp); err != nil {
				b.Fatal(err)
			}
			if resp.Accepted != batchSize {
				b.Fatalf("accepted %d/%d", resp.Accepted, batchSize)
			}
		}
		b.StopTimer()
		reportUploadThroughput(b, batchSize)
	})
}

// reportUploadThroughput converts ns/op (one op = batchSize uploads) into
// an uploads/s metric so the two ingestion paths read directly.
func reportUploadThroughput(b *testing.B, batchSize int) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "uploads/s")
	}
}

// seedHeartbeatHistory drives a heartbeat-heavy history through a Hive on
// s: a small fleet re-registers over and over, so live state stays tiny
// while the persisted event history grows large — the workload where
// snapshot+tail recovery pays off. Seeding is not the measured section,
// so periodic fsync is disabled (Close still syncs).
func seedHeartbeatHistory(b *testing.B, s store.Store, beats int) {
	b.Helper()
	h, err := hive.RecoverFrom(s)
	if err != nil {
		b.Fatal(err)
	}
	s.SetSyncEvery(0)
	const fleet = 10
	heartbeat := func(i int) {
		if err := h.RegisterDevice(transport.DeviceInfo{
			ID: fmt.Sprintf("d%d", i%fleet), User: "bench", Sensors: []string{"gps"},
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < fleet; i++ {
		heartbeat(i)
	}
	if _, _, err := h.PublishTask(transport.TaskSpec{
		Name: "recover-bench", Author: "bench", Script: "var x = 1;",
		PeriodSeconds: 60, Sensors: []string{"gps"},
	}); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < beats; k++ {
		heartbeat(k)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecover measures restart cost on a heartbeat-heavy history
// whose live state is far smaller than its event log. A store that never
// folds replays every record ever written, so its recovery grows with
// total history; one that folds restores the latest snapshot and replays
// only the tail, so its recovery stays bounded by the rotation threshold.
// The tracked ratio is never-fold ns/op over fold ns/op (>= 5x here: the
// seeded history is >= 10x the folded store's tail).
func BenchmarkRecover(b *testing.B) {
	const beats = 12000
	engines := []struct {
		name string
		open func(dir string) (store.Store, error)
	}{
		{"never-fold", func(dir string) (store.Store, error) {
			return store.OpenSegmented(dir, store.SegmentedConfig{SnapshotEvery: 1 << 30})
		}},
		{"fold", func(dir string) (store.Store, error) {
			return store.OpenSegmented(dir, store.SegmentedConfig{
				SegmentBytes: 32 << 10, SnapshotEvery: 2,
			})
		}},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			dir := b.TempDir()
			s, err := eng.open(dir)
			if err != nil {
				b.Fatal(err)
			}
			seedHeartbeatHistory(b, s, beats)
			var replayed int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := eng.open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := hive.RecoverFrom(s); err != nil {
					b.Fatal(err)
				}
				replayed = s.Stats().ReplayRecords
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(replayed), "records/op")
		})
	}
}

// BenchmarkShardedIngest measures group-commit throughput under a
// two-hot-task workload: two goroutines each push b.N batches for their
// own task, every batch a durable group commit. At one commit shard both
// tasks serialise on one fsync boundary; at eight the task IDs hash to
// different shards, so their commits overlap and per-op latency drops.
// One op = one batch from each hot task.
func BenchmarkShardedIngest(b *testing.B) {
	const perBatch = 8
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := store.OpenSegmented(b.TempDir(), store.SegmentedConfig{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h, err := hive.RecoverFrom(s)
			if err != nil {
				b.Fatal(err)
			}
			h.SetMaxUploadsPerTask(0) // the bench accumulates 2*b.N batches
			if err := h.RegisterDevice(transport.DeviceInfo{ID: "d0", User: "bench", Sensors: []string{"gps"}}); err != nil {
				b.Fatal(err)
			}
			publish := func(name string) string {
				spec, _, err := h.PublishTask(transport.TaskSpec{
					Name: name, Author: "bench", Script: "var x = 1;",
					PeriodSeconds: 60, Sensors: []string{"gps"},
				})
				if err != nil {
					b.Fatal(err)
				}
				return spec.ID
			}
			hotA, hotB := publish("hot-0"), publish("hot-1")
			// With several shards the two hot tasks must land on distinct
			// ones for the comparison to mean anything.
			for i := 2; s.Shards() > 1 && s.ShardFor(hotB) == s.ShardFor(hotA); i++ {
				if i > 64 {
					b.Fatal("no second task landed on a distinct shard")
				}
				hotB = publish(fmt.Sprintf("hot-%d", i))
			}

			var wg sync.WaitGroup
			b.ResetTimer()
			for _, taskID := range []string{hotA, hotB} {
				wg.Add(1)
				go func(taskID string) {
					defer wg.Done()
					batch := make([]transport.Upload, perBatch)
					for k := range batch {
						batch[k] = transport.Upload{
							TaskID: taskID, DeviceID: "d0",
							Records: []transport.UploadRecord{{Sensor: "gps", TimeMillis: int64(k)}},
						}
					}
					for i := 0; i < b.N; i++ {
						for _, err := range h.SubmitBatch(batch) {
							if err != nil {
								b.Error(err)
								return
							}
						}
					}
				}(taskID)
			}
			wg.Wait()
			b.StopTimer()
			if st := s.Stats(); st.Syncs > 0 {
				b.ReportMetric(float64(st.Syncs)/float64(b.N), "fsyncs/op")
			}
		})
	}
}

// ---- micro-benchmarks (ablations and hot paths) ----

func benchTrajectory(b *testing.B) *trace.Trajectory {
	b.Helper()
	w := benchWorkload(b)
	return w.Raw.Trajectories[0]
}

// BenchmarkMechanismSmoothing measures the paper's algorithm on one day of
// data (this is the publication hot path).
func BenchmarkMechanismSmoothing(b *testing.B) {
	tr := benchTrajectory(b)
	m, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Protect(nil, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMechanismGeoInd measures planar-Laplace noise per trajectory.
func BenchmarkMechanismGeoInd(b *testing.B) {
	tr := benchTrajectory(b)
	m, err := lppm.NewGeoInd(0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Protect(nil, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPOIExtractionStayPoints measures the attacker-side extractor.
func BenchmarkPOIExtractionStayPoints(b *testing.B) {
	tr := benchTrajectory(b)
	sp, err := poi.NewStayPoints(poi.StayPointConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Extract(tr)
	}
}

// BenchmarkPOIExtractionDJCluster measures the density-based extractor
// (ablation: stay-points vs DJ-cluster attacker).
func BenchmarkPOIExtractionDJCluster(b *testing.B) {
	tr := benchTrajectory(b)
	dj, err := poi.NewDJCluster(poi.DJClusterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dj.Extract(tr)
	}
}

// BenchmarkScriptInterpreter measures SenseScript execution of a typical
// sensing handler over 1000 events.
func BenchmarkScriptInterpreter(b *testing.B) {
	src := `
var count = 0;
var sum = 0;
function handle(loc) {
  count += 1;
  if (loc.speed < 2) { sum += loc.speed; }
  return count;
}
`
	prog, err := script.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := script.NewInterp()
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
		handler, _ := in.Lookup("handle")
		loc := script.ObjectValue(script.NewObject().
			Set("speed", script.Number(1.5)).
			Set("lat", script.Number(45.76)))
		for j := 0; j < 1000; j++ {
			if _, err := in.CallFunction(handler, []script.Value{loc}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSmoothingEpsilonAblation sweeps the resampling step (grain vs
// cost).
func BenchmarkSmoothingEpsilonAblation(b *testing.B) {
	tr := benchTrajectory(b)
	for _, eps := range []float64{50, 100, 200, 400} {
		m, err := lppm.NewSpeedSmoothing(eps, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Protect(nil, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrajectoryResample measures the trace substrate's interpolation.
func BenchmarkTrajectoryResample(b *testing.B) {
	tr := benchTrajectory(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Resample(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceRunTask measures a full task execution on one device: one
// simulated day at 60 s sampling through the SenseScript runtime and the
// privacy chain — the per-device cost of a deployment.
func BenchmarkDeviceRunTask(b *testing.B) {
	w := benchWorkload(b)
	move := w.Raw.Trajectories[0]
	taskSpec := transport.TaskSpec{
		ID: "bench", Name: "bench", PeriodSeconds: 60, Sensors: []string{"gps"},
		Script: `
sensor.gps.onLocationChanged(function(loc) {
  if (loc.speed < 30) {
    dataset.save({lat: loc.lat, lon: loc.lon, speed: loc.speed});
  }
});
`,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := device.New(device.Config{ID: "bench-dev", User: move.User, Movement: move})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.RunTask(taskSpec); err != nil {
			b.Fatal(err)
		}
	}
}
