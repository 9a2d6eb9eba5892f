// Package ingest is the Hive's streaming ingestion subsystem: a bounded,
// channel-backed queue that accepts batches of device uploads, applies
// backpressure when full, and drains them into the registry on a pool of
// workers with group-commit journaling (one fsync per drained batch instead
// of one per upload).
//
// Producers call Submit, which enqueues the batch without blocking — a full
// queue fails fast with ErrQueueFull so the HTTP layer can answer 429 with
// a Retry-After hint — and then wait for the drain worker's commit, so a
// successful Submit means the uploads were validated, admitted and
// journaled. Drain workers opportunistically coalesce every batch already
// waiting in the queue (up to MaxBatch uploads) into one sink call, which
// is what turns a crowd of small device flushes into a few large group
// commits under load.
package ingest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"apisense/internal/apierr"
	"apisense/internal/otrace"
	"apisense/internal/transport"
)

// Sentinel errors of the queue API — coded apierr sentinels, so the HTTP
// layer maps them to statuses by category and returns the code in the
// error body (see docs/OPERATIONS.md).
var (
	// ErrQueueFull is backpressure: the queue's batch slots are all
	// occupied, or admitting the batch would push the queue past its
	// pending-upload bound. The HTTP layer maps it to 429 Too Many
	// Requests with a Retry-After header; well-behaved producers back off
	// with jitter and resubmit.
	ErrQueueFull = apierr.New("ingest.queue_full", apierr.ResourceExhausted, "ingest: queue full")
	// ErrBatchTooLarge marks a single batch bigger than the queue's
	// pending-upload bound — it could never be admitted, so retrying is
	// pointless; split it. The HTTP layer maps it to 413.
	ErrBatchTooLarge = apierr.New("ingest.batch_too_large", apierr.TooLarge, "ingest: batch exceeds the queue's upload bound")
	// ErrClosed marks submissions after Close; the service is draining
	// for shutdown. The HTTP layer maps it to 503.
	ErrClosed = apierr.New("ingest.closed", apierr.Unavailable, "ingest: queue closed")
	// errSinkVerdicts marks a broken sink that returned the wrong number
	// of per-upload verdicts; every upload in the group is failed with it.
	errSinkVerdicts = apierr.New("ingest.sink_verdicts", apierr.Internal, "ingest: sink verdict count mismatch")
)

// Sink is where drained batches are admitted — the Hive registry in
// production, a fake in tests. It must return one error slot per upload
// (nil = accepted) and be safe for concurrent calls.
type Sink interface {
	SubmitBatch(ups []transport.Upload) []error
}

// ContextSink is an optional Sink extension. Sinks that implement it
// receive the drain worker's commit context — which carries the group
// commit's span identity when tracing is on — so their own spans
// (store.append, fsync) join the trace. The Hive implements both
// interfaces; drain workers prefer this one.
type ContextSink interface {
	SubmitBatchContext(ctx context.Context, ups []transport.Upload) []error
}

// Config sizes a Queue. The zero value gets sensible defaults.
type Config struct {
	// Capacity is the number of batch slots in the queue; a Submit that
	// finds all slots occupied fails with ErrQueueFull. Default 64.
	Capacity int
	// MaxBatch caps how many uploads a drain worker coalesces into one
	// sink call (one group commit). A single submitted batch larger than
	// MaxBatch is still committed whole. Default 256.
	MaxBatch int
	// Workers is the size of the drain pool. The default of 1 maximises
	// group-commit coalescing and is right for single-shard sinks, which
	// serialise whole commits anyway. Raise it for sinks that commit
	// batches concurrently — a Hive whose store has several commit shards
	// fsyncs each task's uploads on its own shard, so extra workers let
	// batches for distinct tasks commit in parallel.
	Workers int
	// MaxPendingUploads bounds the total uploads queued across all slots
	// — the actual memory backstop (Capacity alone counts batches, whose
	// size the server does not control). Submissions that would cross it
	// fail with ErrQueueFull; a single batch larger than the bound fails
	// with ErrBatchTooLarge. Default Capacity * MaxBatch.
	MaxPendingUploads int
	// RetryAfter is the backpressure hint handed to rejected producers
	// (surfaced as the HTTP Retry-After header). Default 1s.
	RetryAfter time.Duration
	// Tracer, when non-nil, records one ingest.enqueue span per Submit
	// (child of the caller's span) and one ingest.group_commit span per
	// drained group, linked to every enqueue span the commit amortised.
	// nil disables tracing with one branch and no clock reads.
	Tracer *otrace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxPendingUploads <= 0 {
		c.MaxPendingUploads = c.Capacity * c.MaxBatch
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Stats is a snapshot of the queue gauges, surfaced on the Hive's /stats.
type Stats struct {
	// PendingBatches / PendingUploads are the current queue depth.
	PendingBatches int `json:"pendingBatches"`
	PendingUploads int `json:"pendingUploads"`
	// Capacity echoes the configured batch slots.
	Capacity int `json:"capacity"`
	// Accepted / Rejected count per-upload sink verdicts of drained
	// batches; Dropped counts uploads refused at the door with
	// ErrQueueFull (they never entered the queue).
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Dropped  uint64 `json:"dropped"`
	// BatchesDrained counts sink calls — group commits. Accepted divided
	// by BatchesDrained is the achieved coalescing factor.
	BatchesDrained uint64 `json:"batchesDrained"`
}

// job is one submitted batch waiting for its group commit.
type job struct {
	uploads []transport.Upload
	errs    []error       // per-upload verdicts, filled before done closes
	done    chan struct{} // closed once the batch is committed
	// sc is the submitter's span identity (the enqueue span when tracing
	// is on, else whatever the caller's context carried): the group
	// commit parents itself on the first job's trace and links the rest.
	sc otrace.SpanContext
}

// Queue is the bounded ingestion queue. Create with New, stop with Close.
// Safe for concurrent use: any number of producers may call Submit while
// the drain workers commit; Close may race with in-flight Submits.
type Queue struct {
	sink Sink
	cfg  Config
	ch   chan *job
	wg   sync.WaitGroup

	mu     sync.RWMutex // guards closed (and the ch send against close)
	closed bool

	depth    atomic.Int64 // uploads currently queued
	accepted atomic.Uint64
	rejected atomic.Uint64
	dropped  atomic.Uint64
	batches  atomic.Uint64
}

// New builds a Queue over sink and starts its drain workers. The queue
// keeps no metrics of its own: Stats is its whole gauge surface, and a
// metered Hive server exports it (see hive.WithMetrics).
func New(sink Sink, cfg Config) *Queue {
	cfg = cfg.withDefaults()
	q := &Queue{sink: sink, cfg: cfg, ch: make(chan *job, cfg.Capacity)}
	for w := 0; w < cfg.Workers; w++ {
		q.wg.Add(1)
		go q.drain()
	}
	return q
}

// RetryAfter is the backoff hint for producers rejected with ErrQueueFull.
func (q *Queue) RetryAfter() time.Duration { return q.cfg.RetryAfter }

// Closed reports whether intake has stopped (Close was called): new
// Submits fail with ErrClosed. The readiness probe
// (GET /readyz) uses it to take a draining instance out of rotation.
func (q *Queue) Closed() bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.closed
}

// Submit enqueues a batch and blocks until its group commit, returning the
// per-upload verdicts (nil = accepted and journaled). A full queue fails
// immediately with ErrQueueFull — nothing was admitted, resubmit the whole
// batch after RetryAfter. ctx is checked only before enqueueing (a
// cancelled caller is turned away with nothing admitted); once the batch
// holds a slot, Submit waits out the commit — drain workers always make
// progress, so the wait is bounded by one group commit — and the verdicts
// are therefore always accurate. If the HTTP client behind a Submit
// disconnects before reading the response, a client-side retry ingests the
// batch again: like any ingestion endpoint without idempotency keys, the
// lost-response edge is at-least-once.
func (q *Queue) Submit(ctx context.Context, ups []transport.Upload) ([]error, error) {
	if len(ups) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The enqueue span covers claim -> enqueue -> commit wait; it joins
	// the caller's trace (the HTTP server span) when ctx carries one.
	var sp *otrace.ActiveSpan
	if q.cfg.Tracer != nil {
		ctx, sp = q.cfg.Tracer.Start(ctx, "ingest.enqueue", otrace.Int("uploads", len(ups)))
	}
	reject := func(err error) ([]error, error) {
		if sp != nil {
			sp.SetErr(apierr.Code(err))
			sp.End()
		}
		return nil, err
	}
	if len(ups) > q.cfg.MaxPendingUploads {
		return reject(fmt.Errorf("%w: %d uploads, bound %d", ErrBatchTooLarge, len(ups), q.cfg.MaxPendingUploads))
	}
	// Claim the depth before the batch becomes visible to workers: the
	// gauge can never go negative, and the pending-upload bound holds even
	// against concurrent submitters.
	if depth := q.depth.Add(int64(len(ups))); depth > int64(q.cfg.MaxPendingUploads) {
		q.depth.Add(-int64(len(ups)))
		q.dropped.Add(uint64(len(ups)))
		return reject(fmt.Errorf("%w: %d uploads pending, bound %d", ErrQueueFull, depth-int64(len(ups)), q.cfg.MaxPendingUploads))
	}
	j := &job{uploads: ups, done: make(chan struct{})}
	j.sc, _ = otrace.SpanContextFromContext(ctx)
	q.mu.RLock()
	if q.closed {
		q.mu.RUnlock()
		q.depth.Add(-int64(len(ups)))
		return reject(ErrClosed)
	}
	select {
	case q.ch <- j:
		q.mu.RUnlock()
	default:
		q.mu.RUnlock()
		q.depth.Add(-int64(len(ups)))
		q.dropped.Add(uint64(len(ups)))
		return reject(fmt.Errorf("%w: %d batch slots occupied", ErrQueueFull, q.cfg.Capacity))
	}
	<-j.done
	if sp != nil {
		sp.End()
	}
	return j.errs, nil
}

// Close stops intake, drains every batch already queued, and blocks until
// the workers exit. Safe to call more than once. It takes no deadline: a
// producer blocked in Submit is owed its batch's verdict, so the wait ends
// only when the drain does.
func (q *Queue) Close() { //lint:allow ctxflow shutdown owes every queued batch its verdict, so the drain wait takes no deadline
	q.stopIntake()
	q.wg.Wait()
}

// stopIntake marks the queue closed and wakes the workers; idempotent.
func (q *Queue) stopIntake() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.mu.Unlock()
}

// Stats snapshots the queue gauges.
func (q *Queue) Stats() Stats {
	return Stats{
		PendingBatches: len(q.ch),
		PendingUploads: int(q.depth.Load()),
		Capacity:       q.cfg.Capacity,
		Accepted:       q.accepted.Load(),
		Rejected:       q.rejected.Load(),
		Dropped:        q.dropped.Load(),
		BatchesDrained: q.batches.Load(),
	}
}

// drain is one worker: pop a batch, coalesce whatever else is already
// queued up to MaxBatch uploads, commit the group through the sink, and
// hand each producer its verdicts. A pulled batch that would push the
// group past MaxBatch is carried into the next group, so the cap holds
// (only a single batch bigger than MaxBatch commits alone, oversized).
func (q *Queue) drain() {
	defer q.wg.Done()
	var carry *job
	for {
		j := carry
		carry = nil
		if j == nil {
			var ok bool
			j, ok = <-q.ch
			if !ok {
				return
			}
		}
		jobs := []*job{j}
		n := len(j.uploads)
		for n < q.cfg.MaxBatch {
			var j2 *job
			select {
			case j2 = <-q.ch: // nil when the channel is closed
			default:
			}
			if j2 == nil {
				break
			}
			if n+len(j2.uploads) > q.cfg.MaxBatch {
				carry = j2
				break
			}
			jobs = append(jobs, j2)
			n += len(j2.uploads)
		}
		q.commit(jobs, n)
	}
}

// commit admits one coalesced group through the sink and distributes the
// per-upload verdicts back to the submitting jobs. When tracing is on,
// the group commit is one span parented on the first job's trace and
// linked to every coalesced job's enqueue span — the timeline that shows
// which batches one fsync amortised — and a ContextSink receives the
// span's context so store spans nest under it.
func (q *Queue) commit(jobs []*job, n int) {
	all := make([]transport.Upload, 0, n)
	for _, j := range jobs {
		all = append(all, j.uploads...)
	}
	//lint:allow ctxflow drain workers outlive any one submitter; the commit context only carries trace identity
	cctx := context.Background()
	if jobs[0].sc.Valid() {
		cctx = otrace.ContextWithSpanContext(cctx, jobs[0].sc)
	}
	var sp *otrace.ActiveSpan
	if q.cfg.Tracer != nil {
		cctx, sp = q.cfg.Tracer.Start(cctx, "ingest.group_commit",
			otrace.Int("batches", len(jobs)), otrace.Int("uploads", n))
		for _, j := range jobs {
			sp.Link(j.sc)
		}
	}
	var errs []error
	if cs, ok := q.sink.(ContextSink); ok {
		errs = cs.SubmitBatchContext(cctx, all)
	} else {
		errs = q.sink.SubmitBatch(all)
	}
	sp.End()
	if got := len(errs); got != n { // defensive: a broken sink rejects everything
		errs = make([]error, n)
		for i := range errs {
			errs[i] = fmt.Errorf("%w: %d verdicts for %d uploads", errSinkVerdicts, got, n)
		}
	}
	var acc, rej uint64
	for _, err := range errs {
		if err == nil {
			acc++
		} else {
			rej++
		}
	}
	// Count before releasing the submitters, so a Stats read after Submit
	// returns includes this commit.
	q.depth.Add(-int64(n))
	q.accepted.Add(acc)
	q.rejected.Add(rej)
	q.batches.Add(1)
	off := 0
	for _, j := range jobs {
		j.errs = errs[off : off+len(j.uploads)]
		off += len(j.uploads)
		close(j.done)
	}
}
