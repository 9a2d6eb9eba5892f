// Package ctxflow is the fixture for the ctxflow analyzer: no synthetic
// contexts in library code, and exported blocking APIs offer
// cancellation.
package ctxflow

import (
	"context"
	"sync"
	"time"
)

func background() context.Context {
	return context.Background() // want "must not call context.Background"
}

func todo() context.Context {
	return context.TODO() // want "must not call context.TODO"
}

func legacyRoot() context.Context {
	//lint:allow ctxflow the process root every call derives its context from
	return context.Background()
}

// Wait blocks on the WaitGroup with no cancellation path.
func Wait(wg *sync.WaitGroup) { // want "exported API Wait blocks \\(WaitGroup.Wait\\)"
	wg.Wait()
}

// Sleep is flagged even beside SleepContext: a context-less twin of a
// cancellable API still blocks its caller with no way out.
func Sleep(d time.Duration) { // want "exported API Sleep blocks \\(time.Sleep\\)"
	time.Sleep(d)
}

// SleepContext takes a context: fine.
func SleepContext(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Pool is a blocking hand-off queue.
type Pool struct{ ch chan int }

// Get accepts a context: fine.
func (p *Pool) Get(ctx context.Context) (int, error) {
	select {
	case v := <-p.ch:
		return v, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Put blocks on the channel send with no way out.
func (p *Pool) Put(v int) { // want "exported API Put blocks \\(channel send\\)"
	p.ch <- v
}

// Size does not block at all.
func (p *Pool) Size() int {
	return len(p.ch)
}

// Spawn only blocks inside the goroutine closure, not in the API call.
func (p *Pool) Spawn(v int) {
	go func() { p.ch <- v }()
}

// drain is unexported: the blocking-API rule is about the public
// surface.
func (p *Pool) drain() {
	for range p.ch { // blocking receive, but not exported
	}
}
