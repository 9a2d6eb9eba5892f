package main

import (
	"encoding/json"
)

// runSeconds is the nominal length of one run's timed section; the
// workloads' fixed operation counts are their per-second rates times this.
const runSeconds = 20

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them with tracing off.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", lower},
	{"op_tail_ms", "ms", lower},
	{"items_per_s", "1/s", higher},
	{"alloc_mb_per_op", "MB", lower},
	{"peak_rss_mb", "MB", lower},
	{"restart_ms", "ms", lower},
	{"setup_s", "s", lower},
}

// bounds gives, for each end-to-end metric, the share of the base's median
// by which it may worsen before a change counts as a regression. They come
// from the calibration in README.md: at least twice the widest quartile
// spread seen on any workload across two sets of ten seeds, capped at 0.25.
var bounds = map[string]float64{
	"op_p50_ms":       0.25,
	"op_tail_ms":      0.25,
	"items_per_s":     0.25,
	"alloc_mb_per_op": 0.20,
	"peak_rss_mb":     0.25,
	"restart_ms":      0.25,
	"setup_s":         0.25,
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric that does not apply to a workload (a publication span on an
// ingest workload, a span the program no longer emits) reads 0 and is
// listed on the run's detail line.
var perLayer = []metricDef{
	// program spans, publication
	{"core.publish_sharded.self_ms", "ms", lower},
	{"core.partition.self_ms", "ms", lower},
	{"core.shard.self_ms", "ms", lower},
	{"core.select.self_ms", "ms", lower},
	{"core.strategy.self_ms", "ms", lower},
	{"core.attack.self_ms", "ms", lower},
	{"core.merge.self_ms", "ms", lower},
	{"core.strategy.count", "count", lower},
	{"core.attack.count", "count", lower},
	{"core.select.cache_hit_ratio", "ratio", higher},
	// ladder, publication
	{"lppm.smoothing_ms", "ms", lower},
	{"lppm.geoind_ms", "ms", lower},
	{"lppm.cloaking_ms", "ms", lower},
	{"lppm.downsample_ms", "ms", lower},
	{"poi.staypoints_ms", "ms", lower},
	{"attack.recovery_ms", "ms", lower},
	{"metrics.coverage_ms", "ms", lower},
	{"metrics.density_ms", "ms", lower},
	{"metrics.traffic_ms", "ms", lower},
	{"metrics.distortion_ms", "ms", lower},
	{"trace.hash_ms", "ms", lower},
	{"trace.pseudonymize_ms", "ms", lower},
	// evalcache.Cache.Stats() deltas
	{"evalcache.hit_ratio", "ratio", higher},
	{"evalcache.evictions", "count", lower},
	{"evalcache.bytes_mb", "MB", lower},
	{"evalcache.pruned", "count", higher},
	// program spans, platform
	{"http.uploads_batch.self_ms", "ms", lower},
	{"ingest.enqueue.self_ms", "ms", lower},
	{"ingest.group_commit.self_ms", "ms", lower},
	{"store.append.self_ms", "ms", lower},
	{"store.snapshot_fold.total_ms", "ms", lower},
	{"store.snapshot_fold.count", "count", lower},
	// ingest.Queue.Stats() / store.Store.Stats(), untraced pass
	{"ingest.uploads_per_commit", "count", higher},
	{"ingest.dropped_share", "ratio", lower},
	{"store.syncs_per_batch", "ratio", lower},
	{"store.log_mb", "MB", lower},
	{"store.replay_records", "count", lower},
	{"store.replay_ms", "ms", lower},
	{"store.snapshots", "count", lower},
	{"store.disk_amp", "ratio", lower},
	// ladder, platform
	{"transport.encode_ms", "ms", lower},
	{"transport.batch_kb", "KB", lower},
	{"transport.decode_ms", "ms", lower},
	{"hive.server.handle_ms", "ms", lower},
	{"ingest.submit_ms", "ms", lower},
	{"hive.admit_ms", "ms", lower},
	{"hive.commit_ms", "ms", lower},
	{"store.append_nosync_ms", "ms", lower},
	{"store.append_sync_ms", "ms", lower},
	// traced against untraced
	{"otrace.overhead_share", "ratio", lower},
	{"otrace.attributed_share", "ratio", higher},
}

// manifest renders BENCHMARK.json from the tables above, so the file and
// the program cannot drift apart (manifest_test.go compares them).
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2eEntry{d.Name, d.Unit, d.Better, bounds[d.Name]})
	}
	m.PerLayer = perLayer
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
