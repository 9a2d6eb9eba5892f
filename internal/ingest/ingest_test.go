package ingest_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apisense/internal/hive"
	"apisense/internal/hive/store"
	"apisense/internal/ingest"
	"apisense/internal/transport"
)

// fakeSink records batches and rejects uploads whose TaskID is "bad".
type fakeSink struct {
	mu      sync.Mutex
	batches [][]transport.Upload
}

func (s *fakeSink) SubmitBatch(ups []transport.Upload) []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, append([]transport.Upload(nil), ups...))
	errs := make([]error, len(ups))
	for i, u := range ups {
		if u.TaskID == "bad" {
			errs[i] = errors.New("rejected")
		}
	}
	return errs
}

func (s *fakeSink) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

// gatedSink blocks every SubmitBatch until the gate closes, then delegates.
// parked counts workers currently waiting at the gate, so tests can
// saturate the queue deterministically before asserting backpressure.
type gatedSink struct {
	ingest.Sink
	gate   <-chan struct{}
	parked atomic.Int32
}

func (s *gatedSink) SubmitBatch(ups []transport.Upload) []error {
	s.parked.Add(1)
	<-s.gate
	s.parked.Add(-1)
	return s.Sink.SubmitBatch(ups)
}

func up(task, key string) transport.Upload {
	return transport.Upload{
		TaskID: task, DeviceID: "d1",
		Records: []transport.UploadRecord{{Sensor: "gps", Data: map[string]any{"key": key}}},
	}
}

func TestSubmitPerItemVerdicts(t *testing.T) {
	sink := &fakeSink{}
	q := ingest.New(sink, ingest.Config{})
	defer q.Close()

	errs, err := q.Submit(context.Background(), []transport.Upload{
		up("ok", "a"), up("bad", "b"), up("ok", "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 || errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Errorf("verdicts = %v, want [nil, rejected, nil]", errs)
	}
	st := q.Stats()
	if st.Accepted != 2 || st.Rejected != 1 || st.BatchesDrained == 0 {
		t.Errorf("stats = %+v", st)
	}

	// Empty submissions are a no-op.
	if errs, err := q.Submit(context.Background(), nil); err != nil || errs != nil {
		t.Errorf("empty submit = %v, %v", errs, err)
	}
}

// acceptSink accepts every upload and keeps nothing.
type acceptSink struct{}

func (acceptSink) SubmitBatch(ups []transport.Upload) []error { return make([]error, len(ups)) }

// TestStatsCountReturnedSubmit: the commit is counted before its submitter
// is released, so Stats read right after Submit returns already holds it.
func TestStatsCountReturnedSubmit(t *testing.T) {
	q := ingest.New(acceptSink{}, ingest.Config{})
	defer q.Close()
	for i := 1; i <= 3000; i++ {
		if _, err := q.Submit(context.Background(), []transport.Upload{up("ok", "a")}); err != nil {
			t.Fatal(err)
		}
		if st := q.Stats(); st.Accepted != uint64(i) || st.PendingUploads != 0 {
			t.Fatalf("after submit %d: stats = %+v, want %d accepted and none pending", i, st, i)
		}
	}
}

// TestQueueFullBackpressure deterministically saturates the queue: the
// drain worker is parked inside the sink, the single batch slot is
// occupied, and the next Submit must fail fast with ErrQueueFull.
func TestQueueFullBackpressure(t *testing.T) {
	gate := make(chan struct{})
	sink := &gatedSink{Sink: &fakeSink{}, gate: gate}
	q := ingest.New(sink, ingest.Config{Capacity: 1, Workers: 1, RetryAfter: 3 * time.Second})
	defer q.Close()
	// If an assertion fails before the explicit release below, the gate
	// must still open or the deferred Close deadlocks on the parked worker.
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer releaseGate()

	// Sequenced saturation: the first batch is claimed by the worker and
	// parked inside the sink (sealing its coalescing group); only then is
	// the second submitted, so it must sit in the single batch slot.
	results := make(chan error, 2)
	submit := func(key string) {
		go func() {
			_, err := q.Submit(context.Background(), []transport.Upload{up("ok", key)})
			results <- err
		}()
	}
	submit("first")
	waitFor(t, func() bool { return sink.parked.Load() == 1 })
	submit("second")
	waitFor(t, func() bool { return q.Stats().PendingBatches == 1 })

	// Third batch: nothing is draining and the slot is taken — backpressure.
	_, err := q.Submit(context.Background(), []transport.Upload{up("ok", "third")})
	if !errors.Is(err, ingest.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := q.RetryAfter(); got != 3*time.Second {
		t.Errorf("RetryAfter = %v, want 3s", got)
	}
	if q.Stats().Dropped == 0 {
		t.Error("dropped gauge not incremented")
	}

	releaseGate()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainCoalescing: with the worker parked, several queued batches must
// drain as one group commit (a single sink call).
func TestDrainCoalescing(t *testing.T) {
	gate := make(chan struct{})
	inner := &fakeSink{}
	sink := &gatedSink{Sink: inner, gate: gate}
	q := ingest.New(sink, ingest.Config{Capacity: 8, Workers: 1})
	defer q.Close()
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer releaseGate()

	var wg sync.WaitGroup
	submit := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := q.Submit(context.Background(), []transport.Upload{up("ok", key)}); err != nil {
				t.Error(err)
			}
		}()
	}
	submit("head") // claimed by the worker, parks in the sink
	// Wait until the worker is inside the sink: its coalescing window is
	// sealed, so the next submissions form a separate group.
	waitFor(t, func() bool { return sink.parked.Load() == 1 })
	submit("a")
	submit("b")
	submit("c")
	waitFor(t, func() bool { return q.Stats().PendingBatches == 3 })

	releaseGate()
	wg.Wait()
	// One call for "head", one coalesced call for {a, b, c}.
	if got := inner.calls(); got != 2 {
		t.Errorf("sink calls = %d, want 2 (head + coalesced group)", got)
	}
	if st := q.Stats(); st.Accepted != 4 || st.BatchesDrained != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCoalescingRespectsMaxBatch: a pulled batch that would overflow the
// group is carried into the next commit, so no group (of multi-batch
// makeup) exceeds MaxBatch uploads.
func TestCoalescingRespectsMaxBatch(t *testing.T) {
	gate := make(chan struct{})
	inner := &fakeSink{}
	sink := &gatedSink{Sink: inner, gate: gate}
	q := ingest.New(sink, ingest.Config{Capacity: 8, MaxBatch: 3, Workers: 1})
	defer q.Close()
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer releaseGate()

	var wg sync.WaitGroup
	submit := func(keys ...string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ups := make([]transport.Upload, len(keys))
			for i, k := range keys {
				ups[i] = up("ok", k)
			}
			if _, err := q.Submit(context.Background(), ups); err != nil {
				t.Error(err)
			}
		}()
	}
	submit("head") // parks the worker
	waitFor(t, func() bool { return sink.parked.Load() == 1 })
	submit("a1", "a2") // first group: 2 <= 3...
	waitFor(t, func() bool { return q.Stats().PendingBatches == 1 })
	submit("b1", "b2") // ...but adding this one would make 4 > 3: carried
	waitFor(t, func() bool { return q.Stats().PendingBatches == 2 })

	releaseGate()
	wg.Wait()
	sizes := func() []int {
		inner.mu.Lock()
		defer inner.mu.Unlock()
		out := make([]int, len(inner.batches))
		for i, b := range inner.batches {
			out[i] = len(b)
		}
		return out
	}()
	// head alone, then {a1,a2}, then the carried {b1,b2}.
	want := []int{1, 2, 2}
	if len(sizes) != len(want) {
		t.Fatalf("group sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("group[%d] = %d uploads, want %d (MaxBatch must hold)", i, sizes[i], want[i])
		}
	}
}

// TestPendingUploadBound: Capacity counts batch slots, but the memory
// backstop is MaxPendingUploads — submissions that would cross it are
// turned away with ErrQueueFull, and a batch that could never fit fails
// with ErrBatchTooLarge.
func TestPendingUploadBound(t *testing.T) {
	gate := make(chan struct{})
	sink := &gatedSink{Sink: &fakeSink{}, gate: gate}
	q := ingest.New(sink, ingest.Config{Capacity: 8, MaxBatch: 4, Workers: 1, MaxPendingUploads: 5})
	defer q.Close()
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer releaseGate()

	if _, err := q.Submit(context.Background(), []transport.Upload{
		up("ok", "g1"), up("ok", "g2"), up("ok", "g3"),
		up("ok", "g4"), up("ok", "g5"), up("ok", "g6"),
	}); !errors.Is(err, ingest.ErrBatchTooLarge) {
		t.Fatalf("oversized batch err = %v, want ErrBatchTooLarge", err)
	}

	done := make(chan error, 1)
	go func() {
		ups := make([]transport.Upload, 4)
		for i := range ups {
			ups[i] = up("ok", fmt.Sprintf("w%d", i))
		}
		_, err := q.Submit(context.Background(), ups)
		done <- err
	}()
	waitFor(t, func() bool { return sink.parked.Load() == 1 })

	// 4 of 5 pending-upload slots held by the parked batch: 2 more would
	// cross the bound even though 7 of 8 batch slots are free.
	if _, err := q.Submit(context.Background(), []transport.Upload{up("ok", "x1"), up("ok", "x2")}); !errors.Is(err, ingest.ErrQueueFull) {
		t.Fatalf("bound-crossing submit err = %v, want ErrQueueFull", err)
	}
	if q.Stats().Dropped != 2 {
		t.Errorf("dropped = %d, want 2", q.Stats().Dropped)
	}

	releaseGate()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCloseDrainsAndRejectsNewWork(t *testing.T) {
	sink := &fakeSink{}
	q := ingest.New(sink, ingest.Config{Capacity: 16, Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := q.Submit(context.Background(), []transport.Upload{up("ok", fmt.Sprint(i))}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	q.Close()
	q.Close() // idempotent
	if st := q.Stats(); st.Accepted != 10 || st.PendingUploads != 0 {
		t.Errorf("stats after close = %+v", st)
	}
	if _, err := q.Submit(context.Background(), []transport.Upload{up("ok", "late")}); !errors.Is(err, ingest.ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}

// TestSubmitContextCancelled: a cancelled caller is turned away before the
// enqueue with nothing admitted; a batch that made it into the queue is
// always committed and its verdicts delivered, even if the ctx fires while
// it waits — verdicts never go missing for admitted work.
func TestSubmitContextCancelled(t *testing.T) {
	gate := make(chan struct{})
	sink := &gatedSink{Sink: &fakeSink{}, gate: gate}
	q := ingest.New(sink, ingest.Config{Capacity: 2, Workers: 1})
	defer q.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Submit(ctx, []transport.Upload{up("ok", "x")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := q.Stats(); st.Accepted != 0 || st.PendingUploads != 0 {
		t.Errorf("cancelled submit admitted work: %+v", st)
	}

	// Cancelling mid-wait does not lose the verdicts: once the batch is in
	// (worker parked on it), the cancel is irrelevant — Submit returns the
	// commit's verdicts.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		for i := 0; i < 5000 && sink.parked.Load() == 0; i++ {
			time.Sleep(time.Millisecond)
		}
		cancel2()
		close(gate)
	}()
	errs, err := q.Submit(ctx2, []transport.Upload{up("ok", "y")})
	if err != nil || len(errs) != 1 || errs[0] != nil {
		t.Fatalf("submit racing a cancel = %v, %v; want committed verdicts", errs, err)
	}
	if st := q.Stats(); st.Accepted != 1 {
		t.Errorf("stats = %+v, want the in-flight batch committed", st)
	}
}

// TestBrokenSinkVerdicts: a sink returning the wrong number of verdicts
// must fail the whole group, not panic or mis-attribute results.
type brokenSink struct{}

func (brokenSink) SubmitBatch(ups []transport.Upload) []error { return nil }

func TestBrokenSinkVerdicts(t *testing.T) {
	q := ingest.New(brokenSink{}, ingest.Config{})
	defer q.Close()
	errs, err := q.Submit(context.Background(), []transport.Upload{up("ok", "a"), up("ok", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Errorf("verdicts = %v, want two errors", errs)
	}
}

// recoverHive opens the storage engine on dir and recovers a Hive from it.
func recoverHive(t *testing.T, dir string) (*hive.Hive, store.Store) {
	t.Helper()
	s, err := store.OpenSegmented(dir, store.SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hive.RecoverFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	return h, s
}

// TestNoLossNoDupUnderBackpressure is the subsystem's integrity contract,
// run under -race in CI: concurrent producers push batches through a tiny
// queue into a journaled Hive, hitting ErrQueueFull and retrying; after a
// drain and a journal replay, the recovered Hive must hold exactly the
// acknowledged uploads — none lost, none duplicated.
func TestNoLossNoDupUnderBackpressure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	h, j := recoverHive(t, path)
	if err := h.RegisterDevice(transport.DeviceInfo{ID: "d1", User: "alice", Sensors: []string{"gps"}}); err != nil {
		t.Fatal(err)
	}
	spec, _, err := h.PublishTask(transport.TaskSpec{
		Name: "ingest-race", Author: "lab", Script: "var x = 1;", PeriodSeconds: 60, Sensors: []string{"gps"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 — deterministic backpressure: park the drain worker, fill
	// the single slot, and prove a producer is turned away.
	gate := make(chan struct{})
	gated := &gatedSink{Sink: h, gate: gate}
	q := ingest.New(gated, ingest.Config{Capacity: 1, MaxBatch: 16, Workers: 2})
	defer q.Close() // idempotent; normally closed mid-test before replay
	releaseGate := sync.OnceFunc(func() { close(gate) })
	defer releaseGate()

	var (
		mu       sync.Mutex
		accepted = make(map[string]bool)
	)
	ack := func(keys []string, errs []error) {
		mu.Lock()
		defer mu.Unlock()
		for i, e := range errs {
			if e != nil {
				t.Errorf("upload %s rejected: %v", keys[i], e)
				continue
			}
			accepted[keys[i]] = true
		}
	}
	submitBatch := func(keys []string) {
		ups := make([]transport.Upload, len(keys))
		for i, k := range keys {
			ups[i] = up(spec.ID, k)
		}
		for {
			errs, err := q.Submit(context.Background(), ups)
			if errors.Is(err, ingest.ErrQueueFull) {
				time.Sleep(200 * time.Microsecond) // jittered enough by the scheduler
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			ack(keys, errs)
			return
		}
	}

	var wg sync.WaitGroup
	park := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			submitBatch([]string{key})
		}()
	}
	// Sequenced so each batch lands where intended: park one worker, park
	// the other, and only then fill the single slot — otherwise an idle
	// worker could coalesce the slot filler into its own group and leave
	// the queue empty.
	park("parked-1")
	waitFor(t, func() bool { return gated.parked.Load() == 1 })
	park("parked-2")
	waitFor(t, func() bool { return gated.parked.Load() == 2 })
	park("slot")
	waitFor(t, func() bool { return q.Stats().PendingBatches == 1 })
	if _, err := q.Submit(context.Background(), []transport.Upload{up(spec.ID, "turned-away")}); !errors.Is(err, ingest.ErrQueueFull) {
		t.Fatalf("saturated queue err = %v, want ErrQueueFull", err)
	}

	// Phase 2 — storm: concurrent producers with retry, workers draining
	// and group-committing to the journal the whole time.
	releaseGate()
	const producers, batchesPerProducer, perBatch = 8, 12, 5
	var fulls atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batchesPerProducer; b++ {
				keys := make([]string, perBatch)
				for i := range keys {
					keys[i] = fmt.Sprintf("p%d-b%d-i%d", p, b, i)
				}
				ups := make([]transport.Upload, len(keys))
				for i, k := range keys {
					ups[i] = up(spec.ID, k)
				}
				for {
					errs, err := q.Submit(context.Background(), ups)
					if errors.Is(err, ingest.ErrQueueFull) {
						fulls.Add(1)
						time.Sleep(200 * time.Microsecond)
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					ack(keys, errs)
					break
				}
			}
		}(p)
	}
	wg.Wait()
	q.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("storm: %d ErrQueueFull rejections retried", fulls.Load())

	const want = 3 + producers*batchesPerProducer*perBatch
	if len(accepted) != want {
		t.Fatalf("acknowledged %d uploads, want %d", len(accepted), want)
	}

	// Phase 3 — replay: the journal must restore exactly the acknowledged
	// set.
	h2, j2 := recoverHive(t, path)
	defer j2.Close()
	ups, err := h2.Uploads(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(ups))
	for _, u := range ups {
		key, _ := u.Records[0].Data["key"].(string)
		if seen[key] {
			t.Errorf("duplicated upload %q after replay", key)
		}
		seen[key] = true
		if !accepted[key] {
			t.Errorf("replayed upload %q was never acknowledged", key)
		}
	}
	for key := range accepted {
		if !seen[key] {
			t.Errorf("acknowledged upload %q lost after replay", key)
		}
	}
	if len(ups) != want {
		t.Errorf("replayed %d uploads, want %d", len(ups), want)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
