// Package par provides the bounded-worker fan-out primitive shared by the
// concurrent stages of the publication pipeline (strategy portfolio
// evaluation in internal/core, per-trajectory protection in internal/lppm).
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on up to workers goroutines and
// blocks until all scheduled calls return. Work items are claimed through a
// shared atomic counter, so callers that write fn results into the i-th
// slot of a preallocated slice preserve input order regardless of
// scheduling. On the first fn error the remaining items are abandoned (the
// ctx passed to in-flight fn calls is cancelled) and that error is
// returned. When ctx is cancelled, For stops claiming items and returns
// ctx.Err(). workers <= 1 (or n <= 1) degrades to a sequential loop with
// no goroutine overhead.
func For(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	return ForWorker(ctx, n, workers, func(ctx context.Context, _, i int) error { return fn(ctx, i) })
}

// ForWorker is For that also tells fn which worker runs it: w is in
// [0, min(workers, n)) (0 when sequential), and no two calls with the same
// w overlap, so fn may reuse per-worker scratch indexed by w.
func ForWorker(ctx context.Context, n, workers int, fn func(ctx context.Context, w, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, 0, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || wctx.Err() != nil {
					return
				}
				if err := fn(wctx, w, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
