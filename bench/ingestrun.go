package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func (w *workload) hiveConfig(dir string, tr *tracer) hiveConfig {
	return hiveConfig{dir: dir, segmentBytes: w.segmentBytes, snapshotEvery: w.snapshotEvery, tracer: tr}
}

// ingestEnv is an ingest workload ready for its first timed batch.
type ingestEnv struct {
	cfg   hiveConfig
	data  *pubData
	hive  *hiveEnv // nil once the pass is over and the Hive stopped
	tasks []string
	gen   *batchGen
}

// setupIngest is everything before the first timed batch: generate the
// dataset the GPS records are sliced from, open the store, recover an empty
// Hive, register the fleet, publish the tasks, start the listener.
func setupIngest(w *workload, o runOpts, dir string, tr *tracer) (*ingestEnv, error) {
	d, err := o.dataset()
	if err != nil {
		return nil, err
	}
	cfg := w.hiveConfig(dir, tr)
	h, err := startHive(cfg, d)
	if err != nil {
		return nil, err
	}
	return &ingestEnv{cfg: cfg, data: d, hive: h, tasks: h.tasks, gen: newBatchGen(d, h.tasks, w.uploads, w.records)}, nil
}

// ingestPass is one timed loop of batch POSTs against a Hive that has since
// been stopped, and what it left behind.
type ingestPass struct {
	samples []sample
	started time.Time
	stats   platformStats // counters accumulated over the loop only
	acked   *ledger       // the uploads of every acknowledged batch
	payload int64         // JSON bytes of every acknowledged batch
	disk    int64         // bytes in the store directory after close
}

// ingestLoop posts n batches over the workload's connections, stops the
// Hive, and rebuilds the ledger of what was acknowledged.
func ingestLoop(ctx context.Context, w *workload, env *ingestEnv, n int, r *report) (ingestPass, error) {
	ups := make([]*uploader, conns)
	for c := range ups {
		ups[c] = newUploader(env.hive.url)
	}
	next := make([]batch, conns)
	before := env.hive.stats()
	pass := ingestPass{started: time.Now(), acked: newLedger()}
	pass.samples = runLoop(ctx, wallClock{}, n, conns, w.interval, opHooks{
		prepare: func(c, i int) { next[c] = env.gen.batch(i) },
		run:     func(ctx context.Context, c, _ int) error { return ups[c].post(ctx, next[c]) },
	})
	after := env.hive.stats()
	if err := env.hive.stop(ctx); err != nil {
		return pass, fmt.Errorf("stop hive: %w", err)
	}
	env.hive = nil // a restart starts from the disk, not beside the old heap
	pass.stats = platformStats{
		accepted:       after.accepted - before.accepted,
		dropped:        after.dropped - before.dropped,
		batchesDrained: after.batchesDrained - before.batchesDrained,
		syncs:          after.syncs - before.syncs,
		snapshots:      after.snapshots - before.snapshots,
		logBytes:       after.logBytes,
	}
	r.notes["queue_depth_end"] = float64(after.pendingUploads)
	if w.interval > 0 {
		late := make([]float64, len(pass.samples))
		for i, s := range pass.samples {
			late[i] = ms(s.lateness())
		}
		sort.Float64s(late)
		r.notes["late_p99_ms"] = percentile(late, 0, 99)
	}
	for i, s := range pass.samples {
		if s.err != nil {
			continue
		}
		b := env.gen.batch(i)
		pass.acked.addBatch(b)
		size, err := payloadBytes(b)
		if err != nil {
			return pass, err
		}
		pass.payload += int64(size)
	}
	var err error
	pass.disk, err = dirBytes(env.cfg.dir)
	return pass, err
}

// restartIngest is the restart phase: reopen the directory the pass wrote,
// recover, close — several times — and hold the recovered state against
// what was acknowledged: the same uploads, none lost, none invented.
func restartIngest(env *ingestEnv, pass ingestPass, r *report) (restarted, error) {
	var took []time.Duration
	var last restarted
	for k := 0; k < restarts; k++ {
		runtime.GC()
		rs, err := restartHive(env.cfg, env.tasks)
		if err != nil {
			return restarted{}, fmt.Errorf("restart %d: %w", k, err)
		}
		took = append(took, rs.elapsed)
		last = rs
	}
	last.elapsed = medianDuration(took)
	if last.statsUploads != pass.acked.uploads || last.statsRecords != pass.acked.records {
		r.violate("recovered Hive holds %d uploads / %d records, %d / %d were acknowledged",
			last.statsUploads, last.statsRecords, pass.acked.uploads, pass.acked.records)
	}
	if !last.recovered.equal(pass.acked) {
		r.violate("recovered uploads differ from the acknowledged ones")
	}
	return last, nil
}

// runIngest runs one ingest workload: untraced for the end-to-end metrics,
// or an untraced and a traced pass plus the layer ladder for the per-layer
// ones. Both end with the restart phase.
func runIngest(ctx context.Context, w *workload, o runOpts) (*report, error) {
	r := newReport()
	n := w.ops(o)

	var env *ingestEnv
	setups, err := timeSetups(o, func() (err error) {
		env, err = setupIngest(w, o, filepath.Join(o.scratch, "store"), nil)
		return err
	}, func() error {
		if err := env.hive.stop(ctx); err != nil {
			return err
		}
		return os.RemoveAll(env.cfg.dir)
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "%s: %d batches of %d uploads x %d records over %d connections\n",
		w.name, n, w.uploads, w.records, conns)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pass, err := ingestLoop(ctx, w, env, n, r)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	r.latencyFigures(w, pass.samples)
	if r.failed > 0 {
		return r, nil
	}
	rs, err := restartIngest(env, pass, r)
	if err != nil {
		return nil, err
	}
	if !o.traced {
		r.metrics["items_per_s"] = float64(pass.acked.uploads) / timedSection(pass.samples, w.interval > 0).Seconds()
		r.metrics["alloc_mb_per_op"] = allocMB(&m0, &m1) / float64(n)
		r.metrics["restart_ms"] = ms(rs.elapsed)
		r.metrics["setup_s"] = medianDuration(setups).Seconds()
		return r, nil
	}

	st := pass.stats
	r.metrics["ingest.uploads_per_commit"] = float64(st.accepted) / float64(st.batchesDrained)
	r.metrics["ingest.dropped_share"] = float64(st.dropped) / float64(n*w.uploads)
	r.metrics["store.syncs_per_batch"] = float64(st.syncs) / float64(n)
	r.metrics["store.log_mb"] = float64(st.logBytes) / (1 << 20)
	r.metrics["store.snapshots"] = float64(st.snapshots)
	r.metrics["store.replay_records"] = float64(rs.replayRecords)
	r.metrics["store.replay_ms"] = ms(rs.replay)
	r.metrics["store.disk_amp"] = float64(pass.disk) / float64(pass.payload)

	// The traced pass: the same batches against a fresh Hive that carries
	// the program's tracer. Every request is its own trace, and so is every
	// snapshot fold.
	tr := newTracer(2*n + 64)
	tenv, err := setupIngest(w, o, filepath.Join(o.scratch, "store-traced"), tr)
	if err != nil {
		return nil, err
	}
	traced := newReport()
	tpass, err := ingestLoop(ctx, w, tenv, n, traced)
	if err != nil {
		return nil, err
	}
	traced.latencyFigures(w, tpass.samples)
	tracedP50, ok := r.absorbTraced(traced)
	if !ok {
		return r, nil
	}
	if !tpass.acked.equal(pass.acked) {
		r.violate("traced and untraced passes acknowledged different uploads")
	}

	totals := foldSpans(since(harvest(tr), tpass.started))
	r.spanSelf("http.uploads_batch.self_ms", totals, spanHTTPBatch, n)
	r.spanSelf("ingest.enqueue.self_ms", totals, spanEnqueue, n)
	r.spanSelf("ingest.group_commit.self_ms", totals, spanGroupCommit, n)
	r.spanSelf("store.append.self_ms", totals, spanAppend, n)
	// No fold span at all is a legitimate reading on a run too short to
	// fold, so these two are never marked missing.
	r.metrics["store.snapshot_fold.total_ms"] = ms(totals[spanFold].total())
	r.metrics["store.snapshot_fold.count"] = float64(totals[spanFold].count)

	rungs, cleanup, err := ingestLadder(ctx, env.data, env.gen, filepath.Join(o.scratch, "ladder"))
	if err != nil {
		return nil, err
	}
	if err := r.ladderFigures(rungs, 5); err != nil {
		cleanup()
		return nil, err
	}
	if err := cleanup(); err != nil {
		return nil, err
	}
	wire, err := payloadBytes(env.gen.batch(0))
	if err != nil {
		return nil, err
	}
	r.metrics["transport.batch_kb"] = float64(wire) / 1024
	handled := ms(medianDuration(totals[spanHTTPBatch].durs))
	r.metrics["otrace.attributed_share"] = (handled + r.metrics["transport.encode_ms"]) / tracedP50
	return r, nil
}
