package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// clock is the load generator's time source; tests substitute a fake.
type clock interface {
	now() time.Time
	sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) now() time.Time        { return time.Now() }
func (wallClock) sleep(d time.Duration) { time.Sleep(d) }

// opHooks are one workload's operations as the generator drives them. Only
// run is timed; prepare builds operation i's input and check verifies its
// output, both outside the measurement. conn tells the hooks which of the
// generator's connections is calling, so they can keep per-connection state
// without locking.
type opHooks struct {
	prepare func(conn, i int)
	run     func(ctx context.Context, conn, i int) error
	check   func(conn, i int) error
}

// sample is one operation as the generator saw it.
type sample struct {
	due  time.Time // open loop: the slot's scheduled instant; closed loop: sent
	sent time.Time
	done time.Time
	err  error
}

// latency runs from the instant the operation was due, so on an open loop a
// stall charges every slot that it delayed, not only the request inside it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind its schedule the generator sent the operation.
func (s sample) lateness() time.Duration { return s.sent.Sub(s.due) }

// runLoop performs operations 0..n-1 on conns connections, connection c
// taking operations c, c+conns, ... one after another. With interval > 0
// the loop is open: operation i is due at start+i*interval whatever the
// earlier ones did, and a connection that comes back late sends at once.
// With interval 0 the loop is closed: a connection sends its next operation
// when the previous one has completed.
func runLoop(ctx context.Context, clk clock, n, conns int, interval time.Duration, ops opHooks) []sample {
	samples := make([]sample, n)
	start := clk.now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				if ops.prepare != nil {
					ops.prepare(c, i)
				}
				s := &samples[i]
				if interval > 0 {
					s.due = start.Add(time.Duration(i) * interval)
					if wait := s.due.Sub(clk.now()); wait > 0 {
						clk.sleep(wait)
					}
				}
				s.sent = clk.now()
				if interval == 0 {
					s.due = s.sent
				}
				s.err = ops.run(ctx, c, i)
				s.done = clk.now()
				if s.err == nil && ops.check != nil {
					s.err = ops.check(c, i)
				}
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// timedSection is the span of time the samples' throughput is taken over.
// Open loop: first slot due to last completion. Closed loop: the time at
// least one operation was in flight, which leaves out what the generator
// does between operations (building inputs, checking outputs).
func timedSection(samples []sample, open bool) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	byStart := append([]sample(nil), samples...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].due.Before(byStart[j].due) })
	if open {
		last := byStart[0].done
		for _, s := range byStart {
			if s.done.After(last) {
				last = s.done
			}
		}
		return last.Sub(byStart[0].due)
	}
	var sum time.Duration
	curS, curE := byStart[0].sent, byStart[0].done
	for _, s := range byStart[1:] {
		if s.sent.After(curE) {
			sum += curE.Sub(curS)
			curS, curE = s.sent, s.done
		} else if s.done.After(curE) {
			curE = s.done
		}
	}
	return sum + curE.Sub(curS)
}
