package main

// sut.go is the one file of the benchmark that calls into the program under
// test. Workloads, the load generator, span folding and reporting talk to
// the program only through the types and functions declared here, so an API
// consolidation in the program (one store engine, one instrumentation seam)
// is a one-file change to the benchmark.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"apisense/internal/attack"
	"apisense/internal/core"
	"apisense/internal/evalcache"
	"apisense/internal/geo"
	"apisense/internal/hive"
	"apisense/internal/hive/store"
	"apisense/internal/ingest"
	"apisense/internal/lppm"
	"apisense/internal/metrics"
	"apisense/internal/mobgen"
	"apisense/internal/otrace"
	"apisense/internal/poi"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

// ---- tracing ----

// tracer is the program's public tracer; nil means tracing off.
type tracer = otrace.Tracer

// newTracer returns a tracer whose store keeps up to maxTraces whole traces,
// so a traced pass sized below that loses no span to eviction.
func newTracer(maxTraces int) *tracer {
	return otrace.New(otrace.Config{Store: otrace.NewSpanStore(maxTraces)})
}

// harvest copies every span the tracer recorded into the benchmark's own
// span form.
func harvest(t *tracer) []span {
	var out []span
	st := t.Store()
	for _, sum := range st.Summaries() {
		spans, _ := st.Spans(sum.TraceID)
		for _, sp := range spans {
			s := span{
				trace: sp.TraceID.String(), id: sp.SpanID.String(),
				name: sp.Name, start: sp.Start, end: sp.End,
			}
			if !sp.Parent.IsZero() {
				s.parent = sp.Parent.String()
			}
			if len(sp.Attrs) > 0 {
				s.attrs = make(map[string]string, len(sp.Attrs))
				for _, a := range sp.Attrs {
					s.attrs[a.Key] = a.Value
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// Span names the per-layer metrics are read from.
const (
	spanPublish     = "core.publish_sharded"
	spanHTTPBatch   = "http.POST /api/uploads/batch"
	spanEnqueue     = "ingest.enqueue"
	spanGroupCommit = "ingest.group_commit"
	spanAppend      = "store.append"
	spanFold        = "store.snapshot_fold"
)

// pubSpans are the publication span names in report order; the per-layer
// metric of each is its name plus ".self_ms".
var pubSpans = []string{
	spanPublish, "core.partition", "core.shard", "core.select",
	"core.strategy", "core.attack", "core.merge",
}

// ---- publication side ----

// dataset is one publication's input.
type dataset = *trace.Dataset

// pubData is the generated mobility dataset every workload slices its
// inputs from.
type pubData struct {
	base   dataset
	center geo.Point
	users  []string // sorted
}

// genPubData generates users x days one-day trajectories; seed is the only
// source of variation.
func genPubData(seed uint64, users, days int) (*pubData, error) {
	ds, city, err := mobgen.Generate(mobgen.Config{Seed: seed, Users: users, Days: days})
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	return &pubData{base: ds, center: city.Center, users: ds.Users()}, nil
}

// trajectories and records size the dataset for reports.
func (d *pubData) trajectories() int { return d.base.Len() }
func (d *pubData) records() int      { return d.base.NumRecords() }

// variant returns the base dataset in which users 2i and 2i+1 (modulo the
// user count) have every latitude shifted by (i+1)*1e-5 degrees: content
// never published before for those two, unchanged (and shared with the
// base) for everyone else.
func (d *pubData) variant(i int) dataset {
	n := len(d.users)
	a, b := d.users[(2*i)%n], d.users[(2*i+1)%n]
	shift := float64(i+1) * 1e-5
	out := trace.NewDataset()
	for _, tr := range d.base.Trajectories {
		if tr.User == a || tr.User == b {
			tr = tr.Clone()
			for k := range tr.Records {
				tr.Records[k].Pos.Lat += shift
			}
		}
		out.Add(tr)
	}
	return out
}

// saveCSV writes the base dataset the way cmd/mobgen does, for the
// publication side's restart phase.
func (d *pubData) saveCSV(path string) error { return trace.SaveCSVFile(path, d.base) }

// pubConfig selects how a publisher is built.
type pubConfig struct {
	policy      string // core.ShardPolicyFromSpec form
	parallelism int    // 0 = GOMAXPROCS
	cache       bool   // evalcache.NewLRU(0), the default byte bound
	tracer      *tracer
}

// publisher is one PRIVAPI middleware with its shard policy.
type publisher struct {
	mw     *core.Middleware
	policy core.ShardBy
	cache  *evalcache.LRU
}

func newPublisher(center geo.Point, cfg pubConfig) (*publisher, error) {
	policy, err := core.ShardPolicyFromSpec(cfg.policy)
	if err != nil {
		return nil, err
	}
	p := &publisher{policy: policy}
	c := core.Config{
		PseudonymKey: []byte("bench"),
		Parallelism:  cfg.parallelism,
		Tracer:       cfg.tracer,
	}
	if cfg.cache {
		p.cache = evalcache.NewLRU(0)
		c.Cache = p.cache
	}
	if p.mw, err = core.New(c, center); err != nil {
		return nil, err
	}
	return p, nil
}

// published is one publication's output, kept opaque so that checking it
// stays outside the timed call.
type published struct {
	rel *trace.Dataset
	sel *core.ShardedSelection
}

// publish is the timed operation of the publication workloads.
func (p *publisher) publish(ctx context.Context, ds dataset) (published, error) {
	rel, sel, err := p.mw.PublishShardedContext(ctx, ds, p.policy)
	return published{rel: rel, sel: sel}, err
}

// summary is the cheap part of a publication's outcome, checked on every
// operation: how many trajectories were released, which strategy won each
// shard, and whether every winner is within the exposure floor.
type pubSummary struct {
	released int
	chosen   string // every shard's key and winning strategy
	floorOK  bool
}

func (r published) summary() pubSummary {
	s := pubSummary{released: r.sel.Released}
	s.floorOK = r.sel.Released > 0 && r.sel.WorstExposure <= r.sel.Floor
	for _, sh := range r.sel.Shards {
		if sh.Released > 0 && (sh.Chosen == "" || sh.Exposure > r.sel.Floor) {
			s.floorOK = false
		}
		s.chosen += sh.Key + "=" + sh.Chosen + ";"
	}
	return s
}

// pubOutcome is what the correctness gate compares between publications.
type pubOutcome struct {
	pubSummary
	hash   [trace.HashSize]byte // release content hash
	report []byte               // JSON-marshalled selection report
}

func (r published) outcome() (pubOutcome, error) {
	report, err := json.Marshal(r.sel)
	if err != nil {
		return pubOutcome{}, fmt.Errorf("marshal selection report: %w", err)
	}
	return pubOutcome{pubSummary: r.summary(), hash: r.rel.ContentHash(), report: report}, nil
}

// equal: the same release and a byte-identical report.
func (a pubOutcome) equal(b pubOutcome) bool {
	return a.hash == b.hash && bytes.Equal(a.report, b.report)
}

// sameRelease: the same release from the same per-shard winners, whatever
// the reports say about the losers.
func (a pubOutcome) sameRelease(b pubOutcome) bool {
	return a.hash == b.hash && a.chosen == b.chosen
}

// cacheStats is the evalcache gauge snapshot (zero without a cache).
type cacheStats struct {
	hits, misses, evictions, pruned, bytes int64
}

func (p *publisher) cacheStats() cacheStats {
	if p.cache == nil {
		return cacheStats{}
	}
	s := p.cache.Stats()
	return cacheStats{hits: s.Hits, misses: s.Misses, evictions: s.Evictions, pruned: s.Pruned, bytes: s.Bytes}
}

// reloadPublisher is the publication side's restart: what a fresh privapi
// process pays before it can publish — read the dataset CSV, split it back
// into one-day trajectories, build the middleware. It returns the number of
// records it loaded. (The split is by calendar day, so trajectory boundaries
// — and with them content hashes — differ from the generator's, whose days
// include both midnights; the records are the same.)
func reloadPublisher(path string, center geo.Point, cfg pubConfig) (int, error) {
	ds, err := trace.LoadCSVFile(path)
	if err != nil {
		return 0, err
	}
	ds = ds.SplitDays(time.UTC)
	if _, err := newPublisher(center, cfg); err != nil {
		return 0, err
	}
	return ds.NumRecords(), nil
}

// rung is one step of the layer ladder: a direct call into one layer's
// public functions, repeated inner times under one benchmark-owned span.
type rung struct {
	name  string
	inner int
	fn    func() error
}

// pubLadder builds the publication ladder on d: each protection mechanism,
// stay-point extraction, the POI-recovery attack on the smoothing-protected
// set, every utility scorer, content hashing and pseudonymisation, all at
// parallelism 1 with the middleware's default parameters.
func pubLadder(ctx context.Context, d *pubData) ([]rung, error) {
	raw := d.base
	smoothing, err := lppm.NewSpeedSmoothing(100, 2)
	if err != nil {
		return nil, err
	}
	geoind, err := lppm.NewGeoInd(0.01, 1)
	if err != nil {
		return nil, err
	}
	cloaking, err := lppm.NewCloaking(800, d.center)
	if err != nil {
		return nil, err
	}
	downsample, err := lppm.NewDownsample(20)
	if err != nil {
		return nil, err
	}
	protect := func(m lppm.Mechanism) func() error {
		return func() error {
			_, err := lppm.ProtectDatasetContext(ctx, m, raw, 1)
			return err
		}
	}
	prot, err := lppm.ProtectDatasetContext(ctx, smoothing, raw, 1)
	if err != nil {
		return nil, err
	}

	reference, err := poi.NewStayPoints(poi.StayPointConfig{})
	if err != nil {
		return nil, err
	}
	attacker, err := poi.NewStayPoints(poi.StayPointConfig{MaxDistance: 500})
	if err != nil {
		return nil, err
	}
	recovery, err := attack.NewPOIRecovery(attacker, 0, 0)
	if err != nil {
		return nil, err
	}
	mw, err := core.New(core.Config{}, d.center)
	if err != nil {
		return nil, err
	}
	truth, err := mw.ReferencePOIs(raw)
	if err != nil {
		return nil, err
	}

	box, ok := raw.BBox()
	if !ok {
		return nil, errors.New("empty dataset")
	}
	grid, err := geo.NewGrid(box.Pad(500), 250)
	if err != nil {
		return nil, err
	}
	rawDensity := metrics.UserDensity(raw, grid)
	_, end, _ := raw.TimeSpan()
	eve := end.Add(-time.Nanosecond)
	lastDay := time.Date(eve.Year(), eve.Month(), eve.Day(), 0, 0, 0, 0, time.UTC)
	_, rawTest := metrics.SplitAtDay(raw, lastDay)
	actual := metrics.CountTraffic(rawTest, grid)

	pseudo, err := trace.NewPseudonymizer([]byte("bench"))
	if err != nil {
		return nil, err
	}

	return []rung{
		{"lppm.smoothing_ms", 1, protect(smoothing)},
		{"lppm.geoind_ms", 1, protect(geoind)},
		{"lppm.cloaking_ms", 1, protect(cloaking)},
		{"lppm.downsample_ms", 1, protect(downsample)},
		{"poi.staypoints_ms", 1, func() error { poi.ExtractAll(reference, raw); return nil }},
		{"attack.recovery_ms", 1, func() error { recovery.Run(truth, prot); return nil }},
		{"metrics.coverage_ms", 1, func() error { metrics.Coverage(raw, prot, grid); return nil }},
		{"metrics.density_ms", 1, func() error {
			metrics.TopKOverlap(rawDensity, metrics.UserDensity(prot, grid), 20)
			return nil
		}},
		{"metrics.traffic_ms", 1, func() error {
			train, _ := metrics.SplitAtDay(prot, lastDay)
			f, err := metrics.NewForecaster(metrics.CountTraffic(train, grid))
			if err != nil {
				return err
			}
			f.Evaluate(actual)
			return nil
		}},
		{"metrics.distortion_ms", 1, func() error { metrics.SpatialDistortion(raw, prot); return nil }},
		{"trace.hash_ms", 1, func() error { raw.ContentHash(); return nil }},
		{"trace.pseudonymize_ms", 1, func() error { pseudo.Apply(prot); return nil }},
	}, nil
}

// ---- platform side ----

const (
	fleetDevices = 64
	fleetTasks   = 4
	batchRoute   = "/api/uploads/batch"
)

func deviceID(i int) string { return fmt.Sprintf("dev-%02d", i) }

// registerFleet registers the device fleet and then publishes the tasks, so
// every task recruits every device. It returns the task IDs.
func registerFleet(h *hive.Hive, d *pubData) ([]string, error) {
	for i := 0; i < fleetDevices; i++ {
		err := h.RegisterDevice(transport.DeviceInfo{
			ID: deviceID(i), User: d.users[i%len(d.users)], Sensors: []string{"gps"},
		})
		if err != nil {
			return nil, err
		}
	}
	tasks := make([]string, fleetTasks)
	for i := range tasks {
		spec, _, err := h.PublishTask(transport.TaskSpec{
			Name: fmt.Sprintf("bench-%d", i), Author: "bench", Script: "var x = 1;",
			PeriodSeconds: 60, Sensors: []string{"gps"},
		})
		if err != nil {
			return nil, err
		}
		tasks[i] = spec.ID
	}
	return tasks, nil
}

// hiveConfig is the store half of the cmd/hive flags the workloads vary.
type hiveConfig struct {
	dir           string
	segmentBytes  int64
	snapshotEvery int
	tracer        *tracer
}

func (c hiveConfig) open() (store.Store, error) {
	return store.OpenSegmented(c.dir, store.SegmentedConfig{
		SegmentBytes: c.segmentBytes, SnapshotEvery: c.snapshotEvery,
	})
}

// hiveEnv is a running Hive wired exactly as cmd/hive wires it: segmented
// store, sync-every 1, a 256-slot ingest queue with group commits of at
// most 256 uploads and one drain worker, served on a loopback listener.
type hiveEnv struct {
	hive  *hive.Hive
	store store.Store
	queue *ingest.Queue
	srv   *http.Server
	done  chan error // Serve's result
	url   string
	tasks []string
}

func startHive(cfg hiveConfig, d *pubData) (_ *hiveEnv, err error) {
	st, err := cfg.open()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	h, err := hive.RecoverFrom(st)
	if err != nil {
		return nil, err
	}
	st.SetSyncEvery(1)
	// cmd/hive keeps the default cap of 100 000 uploads per task; the
	// benchmark lifts it so that a longer -seconds never turns into refusals.
	h.SetMaxUploadsPerTask(0)
	tasks, err := registerFleet(h, d)
	if err != nil {
		return nil, err
	}
	q := ingest.New(h, ingest.Config{Capacity: 256, MaxBatch: 256, Workers: 1, Tracer: cfg.tracer})
	opts := []hive.ServerOption{hive.WithIngestQueue(q)}
	if cfg.tracer != nil {
		opts = append(opts, hive.WithTracer(cfg.tracer))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Close()
		return nil, err
	}
	e := &hiveEnv{
		hive: h, store: st, queue: q, tasks: tasks,
		srv:  &http.Server{Handler: hive.NewServer(h, opts...), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

// stop shuts the Hive down in cmd/hive's order: listener, queue, store.
func (e *hiveEnv) stop(ctx context.Context) error {
	err := e.srv.Shutdown(ctx)
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.queue.Close()
	if cerr := e.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// platformStats are the queue and store counters the per-layer metrics use.
type platformStats struct {
	accepted, dropped, batchesDrained uint64
	pendingUploads                    int
	syncs, snapshots                  uint64
	logBytes                          int64
}

func (e *hiveEnv) stats() platformStats {
	q, s := e.queue.Stats(), e.store.Stats()
	return platformStats{
		accepted: q.Accepted, dropped: q.Dropped, batchesDrained: q.BatchesDrained,
		pendingUploads: q.PendingUploads,
		syncs:          s.Syncs, snapshots: s.Snapshots, logBytes: s.LogBytes,
	}
}

// batchGen makes upload batches from the generated trajectories: upload n
// (counted across batches) comes from device n mod 64 for task n mod 4, and
// carries the next `records` fixes of that device's trajectory.
type batchGen struct {
	trajs   []*trace.Trajectory
	speeds  [][]float64
	tasks   []string
	uploads int // per batch
	records int // per upload
}

func newBatchGen(d *pubData, tasks []string, uploads, records int) *batchGen {
	g := &batchGen{trajs: d.base.Trajectories, tasks: tasks, uploads: uploads, records: records}
	g.speeds = make([][]float64, len(g.trajs))
	for i, tr := range g.trajs {
		sp := make([]float64, len(tr.Records))
		for k := 1; k < len(tr.Records); k++ {
			if dt := tr.Records[k].Time.Sub(tr.Records[k-1].Time).Seconds(); dt > 0 {
				sp[k] = geo.Distance(tr.Records[k-1].Pos, tr.Records[k].Pos) / dt
			}
		}
		g.speeds[i] = sp
	}
	return g
}

// batch is one POST's body.
type batch = transport.UploadBatch

func (g *batchGen) batch(i int) batch {
	b := transport.UploadBatch{Uploads: make([]transport.Upload, g.uploads)}
	for u := range b.Uploads {
		n := i*g.uploads + u
		dev := n % fleetDevices
		ti := dev % len(g.trajs)
		tr, speeds := g.trajs[ti], g.speeds[ti]
		off := (n / fleetDevices) * g.records
		recs := make([]transport.UploadRecord, g.records)
		for r := range recs {
			k := (off + r) % len(tr.Records)
			fix := tr.Records[k]
			recs[r] = transport.UploadRecord{
				Sensor: "gps", TimeMillis: fix.Time.UnixMilli(),
				Data: map[string]any{"lat": fix.Pos.Lat, "lon": fix.Pos.Lon, "speed": speeds[k]},
			}
		}
		b.Uploads[u] = transport.Upload{TaskID: g.tasks[n%len(g.tasks)], DeviceID: deviceID(dev), Records: recs}
	}
	return b
}

// uploader is one device-side connection: the program's own client, which
// marshals the batch, POSTs it and decodes the per-item verdicts.
type uploader struct{ cl *transport.Client }

func newUploader(url string) *uploader { return &uploader{cl: transport.NewClient(url)} }

// post is the timed operation of the ingest workloads. A batch counts as
// acknowledged only when every upload in it came back "ok".
func (u *uploader) post(ctx context.Context, b batch) error {
	var resp transport.UploadBatchResponse
	if err := u.cl.Do(ctx, http.MethodPost, batchRoute, b, &resp); err != nil {
		return err
	}
	for _, r := range resp.Results {
		if r.Code != transport.UploadOK {
			return fmt.Errorf("upload %d of the batch refused: %s", r.Index, r.Code)
		}
	}
	if resp.Accepted != len(b.Uploads) {
		return fmt.Errorf("%d of %d uploads accepted", resp.Accepted, len(b.Uploads))
	}
	return nil
}

// ledger summarises a set of uploads without regard to their order: counts
// plus, per task, the sum of the uploads' digests.
type ledger struct {
	uploads, records int
	perTask          map[string]uint64
}

func newLedger() *ledger { return &ledger{perTask: make(map[string]uint64)} }

func (l *ledger) add(u transport.Upload) {
	h := fnv.New64a()
	var buf [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str(u.TaskID)
	str(u.DeviceID)
	num(uint64(len(u.Records)))
	for _, r := range u.Records {
		str(r.Sensor)
		num(uint64(r.TimeMillis))
		num(uint64(len(r.Data)))
		for _, key := range [...]string{"lat", "lon", "speed"} {
			f, _ := r.Data[key].(float64)
			num(math.Float64bits(f))
		}
	}
	l.uploads++
	l.records += len(u.Records)
	l.perTask[u.TaskID] += h.Sum64()
}

func (l *ledger) addBatch(b batch) {
	for _, u := range b.Uploads {
		l.add(u)
	}
}

func (l *ledger) equal(o *ledger) bool {
	if l.uploads != o.uploads || l.records != o.records || len(l.perTask) != len(o.perTask) {
		return false
	}
	for task, sum := range l.perTask {
		if o.perTask[task] != sum {
			return false
		}
	}
	return true
}

// payloadBytes is the size of the batch as the client puts it on the wire.
func payloadBytes(b batch) (int, error) {
	body, err := json.Marshal(b)
	return len(body), err
}

// restarted is what one restart of the Hive found.
type restarted struct {
	elapsed       time.Duration // open store + hive.RecoverFrom + close
	replayRecords int64
	replay        time.Duration
	statsUploads  int     // Hive.Stats() after recovery
	statsRecords  int     //
	recovered     *ledger // every upload the recovered Hive holds
}

// restartHive opens the store directory a run wrote, recovers a Hive from
// it and closes it again.
func restartHive(cfg hiveConfig, tasks []string) (restarted, error) {
	t0 := time.Now()
	st, err := cfg.open()
	if err != nil {
		return restarted{}, err
	}
	h, err := hive.RecoverFrom(st)
	if err != nil {
		st.Close()
		return restarted{}, err
	}
	ss := st.Stats()
	if err := st.Close(); err != nil {
		return restarted{}, err
	}
	r := restarted{
		elapsed:       time.Since(t0),
		replayRecords: ss.ReplayRecords, replay: ss.ReplayDuration,
		recovered: newLedger(),
	}
	hs := h.Stats()
	r.statsUploads, r.statsRecords = hs.Uploads, hs.Records
	for _, task := range tasks {
		ups, err := h.Uploads(task)
		if err != nil {
			return restarted{}, err
		}
		for _, u := range ups {
			r.recovered.add(u)
		}
	}
	return r, nil
}

// noopSink acknowledges everything: the ingest queue's own cost, no Hive.
type noopSink struct{}

func (noopSink) SubmitBatch(ups []transport.Upload) []error { return make([]error, len(ups)) }

// ingestLadder builds the platform ladder for batches of g's shape: wire
// encode and decode, the HTTP handler on an in-memory Hive, the queue into a
// no-op sink, admission without and with a store, and raw store appends
// with and without fsync. Stores live under dir. The returned function
// releases what the rungs hold.
func ingestLadder(ctx context.Context, d *pubData, g *batchGen, dir string) (_ []rung, _ func() error, err error) {
	var closers []func() error
	cleanup := func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if cerr := closers[i](); first == nil {
				first = cerr
			}
		}
		return first
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()

	batch := g.batch(0)
	body, err := json.Marshal(batch)
	if err != nil {
		return nil, nil, err
	}

	memHive := func() (*hive.Hive, error) {
		h := hive.New()
		h.SetMaxUploadsPerTask(0)
		_, err := registerFleet(h, d)
		return h, err
	}
	handlerHive, err := memHive()
	if err != nil {
		return nil, nil, err
	}
	server := hive.NewServer(handlerHive)
	admitHive, err := memHive()
	if err != nil {
		return nil, nil, err
	}

	queue := ingest.New(noopSink{}, ingest.Config{Capacity: 256, MaxBatch: 256, Workers: 1})
	closers = append(closers, func() error { queue.Close(); return nil })

	openStore := func(name string, syncEvery int) (store.Store, error) {
		st, err := hiveConfig{dir: filepath.Join(dir, name)}.open()
		if err != nil {
			return nil, err
		}
		closers = append(closers, st.Close)
		if err := st.Recover(func([]byte) error { return nil }, func([]byte) error { return nil }); err != nil {
			return nil, err
		}
		st.SetSyncEvery(syncEvery)
		return st, nil
	}
	commitStore, err := hiveConfig{dir: filepath.Join(dir, "commit")}.open()
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, commitStore.Close)
	commitHive, err := hive.RecoverFrom(commitStore)
	if err != nil {
		return nil, nil, err
	}
	commitStore.SetSyncEvery(1)
	commitHive.SetMaxUploadsPerTask(0)
	if _, err := registerFleet(commitHive, d); err != nil {
		return nil, nil, err
	}
	nosync, err := openStore("nosync", 0)
	if err != nil {
		return nil, nil, err
	}
	synced, err := openStore("sync", 1)
	if err != nil {
		return nil, nil, err
	}
	// The records a commit of this batch appends: one JSON line per upload.
	recs := make([][]byte, len(batch.Uploads))
	for i := range batch.Uploads {
		rec, err := json.Marshal(map[string]any{"kind": "upload", "upload": &batch.Uploads[i]})
		if err != nil {
			return nil, nil, err
		}
		recs[i] = rec
	}
	firstErr := func(errs []error) error {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	const inner = 20
	return []rung{
		{"transport.encode_ms", inner, func() error { _, err := json.Marshal(batch); return err }},
		{"transport.decode_ms", inner, func() error {
			var b transport.UploadBatch
			return json.Unmarshal(body, &b)
		}},
		{"hive.server.handle_ms", inner, func() error {
			w := httptest.NewRecorder()
			server.ServeHTTP(w, httptest.NewRequest(http.MethodPost, batchRoute, bytes.NewReader(body)).WithContext(ctx))
			if w.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d", w.Code)
			}
			return nil
		}},
		{"ingest.submit_ms", inner, func() error {
			errs, err := queue.Submit(ctx, batch.Uploads)
			if err != nil {
				return err
			}
			return firstErr(errs)
		}},
		{"hive.admit_ms", inner, func() error { return firstErr(admitHive.SubmitBatch(batch.Uploads)) }},
		{"hive.commit_ms", inner, func() error { return firstErr(commitHive.SubmitBatch(batch.Uploads)) }},
		{"store.append_nosync_ms", inner, func() error { return nosync.AppendBatch(0, recs) }},
		{"store.append_sync_ms", inner, func() error { return synced.AppendBatch(0, recs) }},
	}, cleanup, nil
}
